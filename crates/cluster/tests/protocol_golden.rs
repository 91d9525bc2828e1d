//! The wire layout of every driver ↔ worker frame, pinned byte for byte.
//!
//! One canonical value of each `ToWorker`/`ToDriver` variant
//! (`golden/canonical.rs`) is encoded and compared with
//! `golden/protocol-v{PROTOCOL_VERSION}.hex`. A field added, dropped,
//! reordered or resized in `core::codec` or `cluster::protocol` changes
//! these bytes. Two builds that encode differently must not both claim
//! one `PROTOCOL_VERSION`: the handshake would then let them misread each
//! other's frames instead of refusing. So a deliberate layout change
//! bumps `PROTOCOL_VERSION` and replaces the golden file with the hex this
//! test prints.

use std::fmt::Write as _;
use std::path::Path;

use rocket_cluster::{ToDriver, ToWorker, PROTOCOL_VERSION};
use rocket_comm::wire::Wire;

#[path = "golden/canonical.rs"]
mod canonical;

/// Bytes per hex line of the golden file.
const LINE_BYTES: usize = 32;

/// Each frame as a `# <Enum>::<Variant>, <n> bytes` line followed by its
/// bytes in hex.
fn render() -> String {
    let to_worker = canonical::to_worker()
        .into_iter()
        .map(|f| ("ToWorker", format!("{f:?}"), f.to_bytes()));
    let to_driver = canonical::to_driver()
        .into_iter()
        .map(|f| ("ToDriver", format!("{f:?}"), f.to_bytes()));
    let mut out = String::new();
    for (enum_name, debug, bytes) in to_worker.chain(to_driver) {
        let variant = debug.split([' ', '(']).next().unwrap_or_default();
        let _ = writeln!(out, "# {enum_name}::{variant}, {} bytes", bytes.len());
        for line in bytes.chunks(LINE_BYTES) {
            for b in line {
                let _ = write!(out, "{b:02x}");
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn frame_bytes_match_the_golden_for_this_protocol_version() {
    let name = format!("protocol-v{PROTOCOL_VERSION}.hex");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(&name);
    let actual = render();
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(
        expected == actual,
        "the frames this build encodes differ from {name} (or it is missing).\n\
         If the layout change is deliberate, bump PROTOCOL_VERSION in \
         crates/cluster/src/protocol.rs and replace the golden with \
         crates/cluster/tests/golden/protocol-v<new version>.hex holding \
         exactly the text below.\n\
         ---- fresh golden ----\n{actual}---- end ----"
    );
}

#[test]
fn canonical_frames_roundtrip() {
    for frame in canonical::to_worker() {
        assert_eq!(ToWorker::from_bytes(frame.to_bytes()), Ok(frame));
    }
    for frame in canonical::to_driver() {
        let back = ToDriver::from_bytes(frame.to_bytes()).expect("canonical frame decodes");
        assert_eq!(format!("{back:?}"), format!("{frame:?}"));
    }
}
