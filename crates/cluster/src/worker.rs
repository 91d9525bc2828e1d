//! The worker side of the cluster protocol: a serve loop around any
//! in-process [`Backend`].
//!
//! [`serve`] announces readiness, then blocks on the transport: pings are
//! answered immediately and jobs run on their own threads (so heartbeats
//! keep flowing during long cells — a busy worker is not a dead worker).
//! The job thread itself encodes and sends the [`ToDriver::Done`] /
//! [`ToDriver::Failed`] frame the moment its backend returns; no result
//! waits for the serve loop to come round. The loop exits on
//! [`ToWorker::Shutdown`] or when the driver's connection drops, joining
//! in-flight jobs before returning.

use std::time::Duration;

use rocket_comm::wire::Wire;
use rocket_comm::{RecvError, Transport};
use rocket_core::Backend;

use crate::protocol::{ToDriver, ToWorker, DRIVER_RANK, PROTOCOL_VERSION};

/// How often an otherwise idle serve loop looks up to see whether the
/// driver has vanished. Nothing on the job path waits for it.
const DRIVER_CHECK: Duration = Duration::from_millis(100);

/// What a serve loop did before exiting (for logs and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Jobs accepted and executed.
    pub jobs: u64,
    /// Pings answered.
    pub pings: u64,
    /// True when the loop exited on [`ToWorker::Shutdown`] (as opposed to
    /// the driver's connection dropping).
    pub clean_exit: bool,
}

/// Runs the worker protocol on `transport` until the driver shuts it
/// down or disappears, executing every received job on `backend`.
///
/// This call owns the transport's receive side (the single-consumer
/// convention); run it on a dedicated thread — or as the main loop of a
/// worker process, which is what `rocket-node --serve` does.
pub fn serve(transport: &dyn Transport, backend: &dyn Backend) -> ServeReport {
    let mut out = ServeReport::default();
    let _ = send(
        transport,
        &ToDriver::Ready {
            version: PROTOCOL_VERSION,
        },
    );
    // The scope joins every job thread before `serve` returns.
    std::thread::scope(|scope| loop {
        match transport.recv_timeout(DRIVER_CHECK) {
            Ok(msg) => match ToWorker::from_bytes(msg.payload) {
                Ok(ToWorker::Ping { nonce }) => {
                    out.pings += 1;
                    if send(transport, &ToDriver::Pong { nonce }).is_err() {
                        break;
                    }
                }
                Ok(ToWorker::Job { id, scenario }) => {
                    out.jobs += 1;
                    scope.spawn(move || {
                        let frame = match backend.run(&scenario) {
                            Ok(report) => ToDriver::Done { id, report },
                            Err(e) => ToDriver::Failed {
                                id,
                                error: e.to_string(),
                            },
                        };
                        // Best effort: if the driver is gone the serve
                        // loop finds out on its own.
                        let _ = send(transport, &frame);
                    });
                }
                Ok(ToWorker::Shutdown) => {
                    out.clean_exit = true;
                    break;
                }
                // A frame this revision cannot decode is dropped, not
                // fatal: the driver's version check keeps genuinely
                // incompatible peers out.
                Err(_) => {}
            },
            // A report the job thread could not deliver shows up here as
            // the driver's connection being down.
            Err(RecvError::Timeout) if transport.peer_alive(DRIVER_RANK) => {}
            Err(RecvError::Timeout | RecvError::Disconnected) => break,
        }
    });
    out
}

fn send(transport: &dyn Transport, frame: &ToDriver) -> Result<(), RecvError> {
    transport.send(DRIVER_RANK, frame.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Receiver, Sender};
    use rocket_comm::TransportKind;
    use rocket_core::{NodeSpec, RocketError, RunReport, Scenario};
    use rocket_sim::SimBackend;

    fn scenario(seed: u64) -> Scenario {
        Scenario::builder()
            .items(12)
            .node(NodeSpec::uniform(1, 4, 8))
            .seed(seed)
            .build()
    }

    fn recv_frame(t: &dyn Transport) -> ToDriver {
        let msg = t.recv_timeout(Duration::from_secs(10)).expect("frame");
        ToDriver::from_bytes(msg.payload).expect("decode")
    }

    #[test]
    fn serves_jobs_pings_and_shuts_down() {
        let mut eps = TransportKind::Local.connect(2).unwrap();
        let worker_ep = eps.pop().unwrap();
        let driver = eps.pop().unwrap();
        let handle = std::thread::spawn(move || serve(worker_ep.as_ref(), &SimBackend::new()));

        assert!(
            matches!(recv_frame(driver.as_ref()), ToDriver::Ready { version }
            if version == PROTOCOL_VERSION)
        );

        driver
            .send(1, ToWorker::Ping { nonce: 77 }.to_bytes())
            .unwrap();
        assert!(matches!(
            recv_frame(driver.as_ref()),
            ToDriver::Pong { nonce: 77 }
        ));

        driver
            .send(
                1,
                ToWorker::Job {
                    id: 5,
                    scenario: scenario(1),
                }
                .to_bytes(),
            )
            .unwrap();
        match recv_frame(driver.as_ref()) {
            ToDriver::Done { id, report } => {
                assert_eq!(id, 5);
                assert_eq!(report.pairs, 12 * 11 / 2);
            }
            other => panic!("expected Done, got {other:?}"),
        }

        driver.send(1, ToWorker::Shutdown.to_bytes()).unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.jobs, 1);
        assert_eq!(report.pings, 1);
        assert!(report.clean_exit);
    }

    /// A backend whose every run announces itself, then blocks until the
    /// test lets it go.
    struct Gated {
        started: Sender<()>,
        release: Receiver<()>,
    }

    impl Backend for Gated {
        fn name(&self) -> &'static str {
            "gated"
        }

        fn run(&self, scenario: &Scenario) -> Result<RunReport, RocketError> {
            self.started.send(()).expect("test is listening");
            self.release.recv().expect("test releases the run");
            SimBackend::new().run(scenario)
        }
    }

    #[test]
    fn heartbeats_flow_during_a_cell_and_the_job_thread_reports() {
        let mut eps = TransportKind::Local.connect(2).unwrap();
        let worker_ep = eps.pop().unwrap();
        let driver = eps.pop().unwrap();
        let (started_tx, started) = unbounded();
        let (release, release_rx) = unbounded();
        let backend = Gated {
            started: started_tx,
            release: release_rx,
        };
        let handle = std::thread::spawn(move || serve(worker_ep.as_ref(), &backend));
        assert!(matches!(
            recv_frame(driver.as_ref()),
            ToDriver::Ready { .. }
        ));

        let job = ToWorker::Job {
            id: 3,
            scenario: scenario(2),
        };
        driver.send(1, job.to_bytes()).unwrap();
        started.recv().expect("the cell is running");
        driver
            .send(1, ToWorker::Ping { nonce: 8 }.to_bytes())
            .unwrap();
        // The cell is still blocked, so the next frame can only be the pong.
        assert!(matches!(
            recv_frame(driver.as_ref()),
            ToDriver::Pong { nonce: 8 }
        ));

        // From here the driver says nothing: the report must arrive on the
        // job thread's own initiative.
        release.send(()).unwrap();
        assert!(matches!(
            recv_frame(driver.as_ref()),
            ToDriver::Done { id: 3, .. }
        ));

        driver.send(1, ToWorker::Shutdown.to_bytes()).unwrap();
        let report = handle.join().unwrap();
        assert_eq!((report.jobs, report.pings), (1, 1));
        assert!(report.clean_exit);
    }

    #[test]
    fn invalid_scenario_reports_failed_not_crash() {
        let mut eps = TransportKind::Local.connect(2).unwrap();
        let worker_ep = eps.pop().unwrap();
        let driver = eps.pop().unwrap();
        let handle = std::thread::spawn(move || serve(worker_ep.as_ref(), &SimBackend::new()));
        assert!(matches!(
            recv_frame(driver.as_ref()),
            ToDriver::Ready { .. }
        ));

        let mut bad = scenario(1);
        bad.nodes.clear();
        driver
            .send(
                1,
                ToWorker::Job {
                    id: 9,
                    scenario: bad,
                }
                .to_bytes(),
            )
            .unwrap();
        match recv_frame(driver.as_ref()) {
            ToDriver::Failed { id, error } => {
                assert_eq!(id, 9);
                assert!(error.contains("node"), "{error}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        driver.send(1, ToWorker::Shutdown.to_bytes()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn driver_vanishing_ends_the_loop() {
        // Socket transport: dropping the driver endpoint closes its
        // connections, so the worker's receive side reports Disconnected.
        // (Local channels cannot observe a vanished peer passively.)
        let mut eps = TransportKind::Socket.connect(2).unwrap();
        let worker_ep = eps.pop().unwrap();
        let driver = eps.pop().unwrap();
        let handle = std::thread::spawn(move || serve(worker_ep.as_ref(), &SimBackend::new()));
        assert!(matches!(
            recv_frame(driver.as_ref()),
            ToDriver::Ready { .. }
        ));
        drop(driver);
        let report = handle.join().unwrap();
        assert!(!report.clean_exit);
    }

    #[test]
    fn garbage_frames_are_ignored() {
        let mut eps = TransportKind::Local.connect(2).unwrap();
        let worker_ep = eps.pop().unwrap();
        let driver = eps.pop().unwrap();
        let handle = std::thread::spawn(move || serve(worker_ep.as_ref(), &SimBackend::new()));
        assert!(matches!(
            recv_frame(driver.as_ref()),
            ToDriver::Ready { .. }
        ));
        driver
            .send(1, bytes::Bytes::from_static(&[0xEE; 7]))
            .unwrap();
        driver
            .send(1, ToWorker::Ping { nonce: 1 }.to_bytes())
            .unwrap();
        assert!(matches!(
            recv_frame(driver.as_ref()),
            ToDriver::Pong { nonce: 1 }
        ));
        driver.send(1, ToWorker::Shutdown.to_bytes()).unwrap();
        handle.join().unwrap();
    }
}
