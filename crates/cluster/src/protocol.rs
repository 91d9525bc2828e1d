//! The driver ↔ worker frame protocol.
//!
//! Every frame is one transport message: a tag byte followed by the
//! payload fields in [`rocket_comm::Wire`] layout. The driver (rank 0)
//! sends [`ToWorker`] frames; workers (ranks ≥ 1) answer with
//! [`ToDriver`] frames. Scenarios and reports travel through the core
//! codec (`rocket_core::codec`), so a worker process reconstructs the
//! exact scenario the driver built — including bit-exact `f64`
//! distribution parameters, which is what makes a re-dealt job
//! deterministic on its new worker.

// The panic-path set: faults and hostile bytes return errors (docs/static-checks.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use rocket_comm::wire::{Wire, WireError, WireReader, WireWriter};
use rocket_core::{RunReport, Scenario};

/// Protocol revision carried in [`ToDriver::Ready`]; the driver refuses
/// workers that speak a different revision (mixed deployments fail fast
/// instead of mis-decoding frames).
pub const PROTOCOL_VERSION: u32 = 6;

/// Rank of the driver process in the cluster mesh.
pub const DRIVER_RANK: usize = 0;

/// Frames the driver sends to a worker.
#[allow(
    clippy::large_enum_variant,
    reason = "frames are built, encoded and dropped; the payload variants \
              dwarfing Ping/Shutdown cost nothing worth an indirection"
)]
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Execute `scenario` and report back under `id`.
    Job {
        /// Driver-unique job identifier (dedups late duplicate reports).
        id: u64,
        /// The scenario to execute.
        scenario: Scenario,
    },
    /// Liveness probe; answer with [`ToDriver::Pong`] echoing the nonce.
    Ping {
        /// Echoed verbatim in the pong.
        nonce: u64,
    },
    /// Finish in-flight work and exit the serve loop.
    Shutdown,
}

impl Wire for ToWorker {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ToWorker::Job { id, scenario } => {
                w.put_u8(0);
                w.put_u64(*id);
                scenario.encode(w);
            }
            ToWorker::Ping { nonce } => {
                w.put_u8(1);
                w.put_u64(*nonce);
            }
            ToWorker::Shutdown => w.put_u8(2),
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => ToWorker::Job {
                id: r.get_u64()?,
                scenario: Scenario::decode(r)?,
            },
            1 => ToWorker::Ping {
                nonce: r.get_u64()?,
            },
            2 => ToWorker::Shutdown,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// Frames a worker sends to the driver.
#[allow(
    clippy::large_enum_variant,
    reason = "same as ToWorker: transient frames"
)]
#[derive(Debug, Clone)]
pub enum ToDriver {
    /// Handshake: the worker is up and accepting jobs.
    Ready {
        /// The protocol revision the worker speaks.
        version: u32,
    },
    /// Answer to [`ToWorker::Ping`].
    Pong {
        /// The nonce of the ping being answered.
        nonce: u64,
    },
    /// A job completed successfully.
    Done {
        /// The job's identifier.
        id: u64,
        /// The report the worker's backend produced.
        report: RunReport,
    },
    /// A job failed on the worker (deterministic failures are not
    /// re-dealt — they would fail identically everywhere).
    Failed {
        /// The job's identifier.
        id: u64,
        /// Rendered error message.
        error: String,
    },
}

impl Wire for ToDriver {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ToDriver::Ready { version } => {
                w.put_u8(0);
                w.put_u32(*version);
            }
            ToDriver::Pong { nonce } => {
                w.put_u8(1);
                w.put_u64(*nonce);
            }
            ToDriver::Done { id, report } => {
                w.put_u8(2);
                w.put_u64(*id);
                report.encode(w);
            }
            ToDriver::Failed { id, error } => {
                w.put_u8(3);
                w.put_u64(*id);
                w.put_str(error);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => ToDriver::Ready {
                version: r.get_u32()?,
            },
            1 => ToDriver::Pong {
                nonce: r.get_u64()?,
            },
            2 => ToDriver::Done {
                id: r.get_u64()?,
                report: RunReport::decode(r)?,
            },
            3 => ToDriver::Failed {
                id: r.get_u64()?,
                error: r.get_str()?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket_core::{Backend as _, NodeSpec};

    fn scenario() -> Scenario {
        Scenario::builder()
            .items(16)
            .node(NodeSpec::uniform(1, 4, 8))
            .seed(7)
            .build()
    }

    #[test]
    fn to_worker_roundtrips() {
        let frames = [
            ToWorker::Job {
                id: 42,
                scenario: scenario(),
            },
            ToWorker::Ping { nonce: 0xABCD },
            ToWorker::Shutdown,
        ];
        for f in &frames {
            let back = ToWorker::from_bytes(f.to_bytes()).expect("decode");
            assert_eq!(&back, f);
        }
    }

    #[test]
    fn to_driver_roundtrips() {
        let report = rocket_sim::SimBackend::new().run(&scenario()).unwrap();
        let frames = [
            ToDriver::Ready {
                version: PROTOCOL_VERSION,
            },
            ToDriver::Pong { nonce: 9 },
            ToDriver::Done { id: 3, report },
            ToDriver::Failed {
                id: 4,
                error: "invalid configuration: no devices".into(),
            },
        ];
        for f in &frames {
            let back = ToDriver::from_bytes(f.to_bytes()).expect("decode");
            assert_eq!(format!("{back:?}"), format!("{f:?}"));
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            ToWorker::from_bytes(bytes::Bytes::from_static(&[9])),
            Err(WireError::BadTag(9))
        ));
        assert!(matches!(
            ToDriver::from_bytes(bytes::Bytes::from_static(&[7])),
            Err(WireError::BadTag(7))
        ));
    }
}
