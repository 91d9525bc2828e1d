//! Seeded mutation fuzz of the JSON readers: deterministic byte mutations
//! (flip, insert, delete, truncate) of a real simulator perf log and a
//! real study report, each fed to `parse_jsonl` and `Json::parse`. Every
//! mutant must come back `Ok` or `Err` — never a panic, a stack overflow
//! or an allocation sized by a corrupted count.

use rocket::core::{Backend, NodeSpec, Scenario};
use rocket::sim::SimBackend;
use rocket::trace::json::Json;
use rocket::trace::perflog::{parse_jsonl, write_jsonl};
use rocket::trace::{PerfLog, PerfMeta, PerfRollup};
use rocket::{Axis, Study, Sweep};

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
