//! Seeded mutation fuzz of the readers of untrusted bytes: deterministic
//! byte mutations (flip, insert, delete, truncate) of
//! - a real simulator perf log and a real study report, each fed to
//!   `parse_jsonl` and `Json::parse`;
//! - the canonical driver ↔ worker frames of the protocol golden and one
//!   inter-node message per variant, fed to their `Wire` decoders and, as
//!   a framed stream, to `FrameDecoder`.
//!
//! Every mutant must come back `Ok` or `Err` — never a panic, a stack
//! overflow or an allocation sized by a corrupted count.

use std::fmt::Debug;

use bytes::Bytes;
use rocket::cache::DirectoryMsg;
use rocket::cluster::{ToDriver, ToWorker};
use rocket::comm::{encode_frame, FrameDecoder, Wire};
use rocket::core::engine::messages::NodeMsg;
use rocket::core::{Backend, NodeSpec, Scenario};
use rocket::sim::SimBackend;
use rocket::trace::json::Json;
use rocket::trace::perflog::{parse_jsonl, write_jsonl};
use rocket::trace::{PerfLog, PerfMeta, PerfRollup};
use rocket::{Axis, Study, Sweep};

#[path = "../crates/cluster/tests/golden/canonical.rs"]
mod canonical;

/// Mutants per seed input.
const MUTANTS: usize = 10_000;

/// Bytes that steer a JSON lexer into its interesting branches.
const SPICE: &[u8] = b"\"\\{}[],:0-9.eE+nutf\n\x01\xc3\xa4";

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One to four random edits of `seed`.
fn mutate(seed: &[u8], rng: &mut u64) -> Vec<u8> {
    let mut b = seed.to_vec();
    for _ in 0..=splitmix(rng) % 4 {
        let at = (splitmix(rng) as usize) % (b.len() + 1);
        let r = splitmix(rng);
        match r % 4 {
            0 if at < b.len() => b[at] ^= 1 << ((r >> 8) % 8),
            1 => b.insert(at, SPICE[(r >> 8) as usize % SPICE.len()]),
            2 if at < b.len() => {
                b.remove(at);
            }
            _ => b.truncate(at),
        }
    }
    b
}

fn perf_log() -> String {
    let scenario = Scenario::builder()
        .items(6)
        .node(NodeSpec::uniform(1, 4, 8))
        .job_limit(8)
        .build();
    let perf = PerfLog::enabled();
    SimBackend::new()
        .run_with_perf(&scenario, &perf)
        .expect("sim run");
    let meta = PerfMeta {
        run: "fuzz".into(),
        cell: Some(0),
        backend: "sim".into(),
    };
    write_jsonl(&meta, &perf.take())
}

fn study_json() -> String {
    let base = Scenario::builder()
        .items(6)
        .node(NodeSpec::uniform(1, 4, 8))
        .job_limit(8)
        .build();
    let sweep = Sweep::over(base)
        .axis(Axis::distributed_cache([true]))
        .try_build()
        .expect("sweep");
    let mut study = Study::new("fuzz")
        .run(&SimBackend::new(), &sweep)
        .expect("study");
    let perf = PerfLog::enabled();
    SimBackend::new()
        .run_with_perf(&study.cells[0].scenario, &perf)
        .expect("sim run");
    study.cells[0].perf = Some(PerfRollup::from_records(&perf.take()));
    study.to_json()
}

/// Feeds `MUTANTS` mutants of `seed` to both readers; returns how many
/// each accepted.
fn fuzz(seed: &str, mut rng: u64) -> (usize, usize) {
    let (mut perf_ok, mut json_ok) = (0, 0);
    for _ in 0..MUTANTS {
        let bytes = mutate(seed.as_bytes(), &mut rng);
        let text = String::from_utf8_lossy(&bytes);
        if let Ok((meta, records)) = parse_jsonl(&text) {
            // Whatever the reader accepts, the writer reproduces readably.
            assert!(parse_jsonl(&write_jsonl(&meta, &records)).is_ok());
            perf_ok += 1;
        }
        if let Ok(doc) = Json::parse(&text) {
            assert!(Json::parse(&doc.to_string_compact()).is_ok());
            json_ok += 1;
        }
    }
    (perf_ok, json_ok)
}

#[test]
fn mutated_perf_logs_and_reports_never_panic() {
    let log = perf_log();
    let study = study_json();
    assert!(parse_jsonl(&log).is_ok() && Json::parse(&study).is_ok());
    assert!(
        study.contains("\"perf\":{"),
        "the rollup is part of the input"
    );

    // Most edits break the strict formats; some (a digit flip) keep them
    // valid, so both outcomes are exercised.
    let (perf_ok, _) = fuzz(&log, 0x5eed_0001);
    assert!(
        0 < perf_ok && perf_ok < MUTANTS,
        "perf log mutants accepted: {perf_ok}"
    );

    let (perf_ok, json_ok) = fuzz(&study, 0x5eed_0002);
    assert_eq!(perf_ok, 0, "a study report is never a perf log");
    assert!(
        0 < json_ok && json_ok < MUTANTS,
        "report mutants accepted: {json_ok}"
    );
}

/// One inter-node message per variant, the directory protocol's included.
fn node_msgs() -> Vec<NodeMsg> {
    vec![
        NodeMsg::Dir(DirectoryMsg::Request {
            item: 7,
            requester: 3,
        }),
        NodeMsg::Dir(DirectoryMsg::Probe {
            item: 9,
            requester: 0,
            rest: [1, 2, 5].into_iter().collect(),
            hop: 2,
        }),
        NodeMsg::Dir(DirectoryMsg::Found {
            item: 1,
            holder: 4,
            hop: 1,
        }),
        NodeMsg::Dir(DirectoryMsg::NotFound { item: 2 }),
        NodeMsg::Fetch { item: 11 },
        NodeMsg::FetchReply {
            item: 12,
            data: Some(Bytes::from(vec![1u8, 2, 3])),
        },
    ]
}

/// Feeds `MUTANTS` mutants of each encoded seed to `T::from_bytes`;
/// returns how many decoded. Whatever decodes re-encodes to bytes that
/// decode to the same value.
fn fuzz_wire<T: Wire + Debug>(seeds: &[T], mut rng: u64) -> usize {
    let mut ok = 0;
    for seed in seeds {
        let bytes = seed.to_bytes();
        for _ in 0..MUTANTS {
            if let Ok(v) = T::from_bytes(mutate(&bytes, &mut rng).into()) {
                let back = T::from_bytes(v.to_bytes()).expect("re-encoded value decodes");
                assert_eq!(format!("{back:?}"), format!("{v:?}"));
                ok += 1;
            }
        }
    }
    ok
}

/// Feeds `MUTANTS` mutants of a framed stream to `FrameDecoder` and
/// decodes every frame it yields as each frame type, until the stream
/// ends or the decoder rejects a length prefix (where a socket drops the
/// connection). Returns the number of frames yielded.
fn fuzz_frames(stream: &[u8], mut rng: u64) -> usize {
    let mut frames = 0;
    for _ in 0..MUTANTS {
        let mut dec = FrameDecoder::new();
        dec.extend(&mutate(stream, &mut rng));
        while let Ok(Some(payload)) = dec.next_frame() {
            frames += 1;
            let _ = ToWorker::from_bytes(payload.clone());
            let _ = ToDriver::from_bytes(payload.clone());
            let _ = NodeMsg::from_bytes(payload);
        }
    }
    frames
}

#[test]
fn mutated_wire_frames_never_panic() {
    let to_worker = canonical::to_worker();
    let to_driver = canonical::to_driver();
    let msgs = node_msgs();

    // Bit flips inside a number keep a frame valid; most other edits do
    // not, so both outcomes are exercised for every frame type.
    let total = |n: usize| n * MUTANTS;
    let ok = fuzz_wire(&to_worker, 0x5eed_0003);
    assert!(0 < ok && ok < total(to_worker.len()), "ToWorker: {ok}");
    let ok = fuzz_wire(&to_driver, 0x5eed_0004);
    assert!(0 < ok && ok < total(to_driver.len()), "ToDriver: {ok}");
    let ok = fuzz_wire(&msgs, 0x5eed_0005);
    assert!(0 < ok && ok < total(msgs.len()), "NodeMsg: {ok}");

    let mut stream = Vec::new();
    let payloads = (to_worker.iter().map(Wire::to_bytes))
        .chain(to_driver.iter().map(Wire::to_bytes))
        .chain(msgs.iter().map(Wire::to_bytes));
    for payload in payloads {
        stream.extend_from_slice(&encode_frame(&payload));
    }
    assert!(fuzz_frames(&stream, 0x5eed_0006) > 0);
}
