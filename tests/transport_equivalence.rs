//! Transport-seam integration tests: the socket transport must be
//! observationally equivalent to the in-process transport (same results,
//! different wire), and the framed codec must survive arbitrarily torn
//! TCP reads.

use std::sync::Arc;

use rocket::cache::DirectoryMsg;
use rocket::comm::{encode_frame, FrameDecoder, TransportKind, Wire};
use rocket::core::engine::messages::NodeMsg;
use rocket::core::{
    AppError, Application, Backend, NodeSpec, Pair, RunReport, Scenario, ThreadedBackend,
};
use rocket::stats::Xoshiro256;
use rocket::storage::MemStore;
use rocket::trace::PerfLog;

/// Toy application: sums bytes, compares sums (deterministic outputs).
struct ByteSum {
    files: u64,
}

impl Application for ByteSum {
    type Output = i64;
    fn name(&self) -> &str {
        "bytesum"
    }
    fn item_count(&self) -> u64 {
        self.files
    }
    fn file_for(&self, item: u64) -> String {
        format!("{item}.bin")
    }
    fn parsed_bytes(&self) -> usize {
        8
    }
    fn item_bytes(&self) -> usize {
        8
    }
    fn result_bytes(&self) -> usize {
        8
    }
    fn has_preprocess(&self) -> bool {
        false
    }
    fn parse(&self, _item: u64, raw: &[u8], out: &mut [u8]) -> Result<(), AppError> {
        let sum: i64 = raw.iter().map(|&b| b as i64).sum();
        out[..8].copy_from_slice(&sum.to_le_bytes());
        Ok(())
    }
    fn compare(
        &self,
        left: (u64, &[u8]),
        right: (u64, &[u8]),
        out: &mut [u8],
    ) -> Result<(), AppError> {
        let l = i64::from_le_bytes(left.1[..8].try_into().unwrap());
        let r = i64::from_le_bytes(right.1[..8].try_into().unwrap());
        out[..8].copy_from_slice(&(l - r).to_le_bytes());
        Ok(())
    }
    fn postprocess(&self, _pair: Pair, raw: &[u8]) -> i64 {
        i64::from_le_bytes(raw[..8].try_into().unwrap())
    }
}

const ITEMS: u64 = 24;

fn cluster(
    kind: TransportKind,
    nodes: usize,
    distributed_cache: bool,
) -> (Scenario, ThreadedBackend<ByteSum>) {
    // Static partition makes per-node pair counts a pure function of the
    // topology (no timing-dependent stealing), so both transports must
    // produce byte-identical distributions. Host caches hold the full
    // data set: no host evictions, hence deterministic load counts when
    // the distributed cache is off.
    let scenario = Scenario::builder()
        .items(ITEMS)
        .nodes(nodes, NodeSpec::uniform(1, 6, ITEMS as usize))
        .job_limit(8)
        .cpu_threads(2)
        .leaf_pairs(8)
        .static_partition(true)
        .distributed_cache(distributed_cache)
        .transport(kind)
        .seed(42)
        .build();
    let store =
        MemStore::from_iter((0..ITEMS).map(|i| (format!("{i}.bin"), vec![i as u8 + 1; 32])));
    let backend = ThreadedBackend::new(Arc::new(ByteSum { files: ITEMS }), Arc::new(store));
    (scenario, backend)
}

fn run_with(kind: TransportKind, distributed_cache: bool) -> (RunReport, Vec<(Pair, i64)>) {
    let (scenario, backend) = cluster(kind, 4, distributed_cache);
    let report = backend.run_app(&scenario).expect("cluster run");
    let outputs = report
        .sorted_outputs()
        .into_iter()
        .cloned()
        .collect::<Vec<_>>();
    (report.report, outputs)
}

#[test]
fn socket_matches_local_with_distributed_cache() {
    let (local, local_out) = run_with(TransportKind::Local, true);
    let (socket, socket_out) = run_with(TransportKind::Socket, true);

    // The acceptance bar: byte-identical pair accounting across transports.
    assert_eq!(local.pairs, ITEMS * (ITEMS - 1) / 2);
    assert_eq!(local.pairs, socket.pairs);
    assert_eq!(local.failed_pairs, 0);
    assert_eq!(socket.failed_pairs, 0);
    assert_eq!(local.pairs_per_node, socket.pairs_per_node);
    assert_eq!(local_out, socket_out, "per-pair outputs diverged");

    // Every node computed a share (the partition spans the cluster).
    assert!(local.pairs_per_node.iter().all(|&p| p > 0));
    assert_eq!(local.pairs_per_node.iter().sum::<u64>(), local.pairs);

    // The socket path really ran on sockets: the backend says so and the
    // directory protocol moved payload bytes over TCP.
    assert_eq!(local.backend, "threaded");
    assert_eq!(socket.backend, "threaded+socket");
    assert!(socket.net_bytes > 0, "no bytes crossed the sockets");
    assert!(socket.directory.lookups() > 0, "distributed cache unused");
}

#[test]
fn socket_matches_local_exactly_when_deterministic() {
    // With the distributed cache off and host caches large enough to
    // never evict, load counts are deterministic too — so R and the load
    // pipeline must agree exactly, not just statistically.
    let (local, local_out) = run_with(TransportKind::Local, false);
    let (socket, socket_out) = run_with(TransportKind::Socket, false);
    assert_eq!(local.pairs, socket.pairs);
    assert_eq!(local.failed_pairs, socket.failed_pairs);
    assert_eq!(local.pairs_per_node, socket.pairs_per_node);
    assert_eq!(local.loads, socket.loads);
    assert_eq!(local.r_factor(), socket.r_factor());
    assert_eq!(local_out, socket_out);
}

#[test]
fn teardown_wake_token_is_not_traffic() {
    for kind in [TransportKind::Local, TransportKind::Socket] {
        // Without the distributed cache no node sends a `NodeMsg`, so the
        // only message a node's transport carries is the token that stops
        // its comm pump, sent after the report's snapshot. (Each node's
        // receive counters are checked in `rocket_core::cluster`'s tests.)
        let (scenario, backend) = cluster(kind, 2, false);
        let report = backend.run_app(&scenario).expect("cluster run");
        let r = &report.report;
        assert_eq!((r.net_msgs, r.net_bytes), (0, 0), "{kind:?}");
        let pairs: Vec<Pair> = report.sorted_outputs().iter().map(|(p, _)| *p).collect();
        let expected: Vec<Pair> = (0..ITEMS)
            .flat_map(|i| (i + 1..ITEMS).map(move |j| Pair::new(i, j)))
            .collect();
        assert_eq!(pairs, expected, "{kind:?}: missing or duplicate pairs");

        // With peer traffic the pumps still stop and the run completes.
        let (scenario, backend) = cluster(kind, 2, true);
        let report = backend.run_app(&scenario).expect("cluster run");
        assert_eq!(report.outputs.len() as u64, ITEMS * (ITEMS - 1) / 2);
        assert!(report.failed.is_empty());
    }
}

#[test]
fn perf_records_cover_every_node_on_one_clock() {
    for kind in [TransportKind::Local, TransportKind::Socket] {
        let (scenario, backend) = cluster(kind, 2, true);
        let perf = PerfLog::enabled();
        let report = backend
            .run_with_perf(&scenario, &perf)
            .expect("recorded run");
        let records = perf.take();
        assert_eq!(report.pairs, ITEMS * (ITEMS - 1) / 2);
        for node in 0..2 {
            assert!(
                records.iter().any(|r| r.node == node),
                "{kind:?}: node {node} recorded nothing"
            );
        }
        // One run-wide clock: no record is stamped after the run ended or
        // started before it began, whichever node wrote it.
        let elapsed_ns = (report.elapsed * 1e9) as u64;
        for r in &records {
            assert!(r.kind.is_stage(), "{kind:?}: {r:?}");
            assert!(
                r.node < 2 && r.value <= r.t_ns && r.t_ns <= elapsed_ns,
                "{kind:?}: {r:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Framed wire codec: NodeMsg round-trips through torn reads
// ---------------------------------------------------------------------------

fn random_msg(rng: &mut Xoshiro256) -> NodeMsg {
    match rng.below(6) {
        0 => NodeMsg::Dir(DirectoryMsg::Request {
            item: rng.next(),
            requester: rng.below(64),
        }),
        1 => {
            let hops = rng.below(rocket::cache::MAX_HOPS);
            NodeMsg::Dir(DirectoryMsg::Probe {
                item: rng.next(),
                requester: rng.below(64),
                rest: (0..hops).map(|_| rng.below(u32::MAX as usize)).collect(),
                hop: rng.below(8) as u8,
            })
        }
        2 => NodeMsg::Dir(DirectoryMsg::Found {
            item: rng.next(),
            holder: rng.below(64),
            hop: rng.below(8) as u8,
        }),
        3 => NodeMsg::Dir(DirectoryMsg::NotFound { item: rng.next() }),
        4 => NodeMsg::Fetch { item: rng.next() },
        _ => {
            let data = rng.chance(0.5).then(|| {
                let len = rng.below(4096);
                bytes::Bytes::from((0..len).map(|_| rng.next() as u8).collect::<Vec<u8>>())
            });
            NodeMsg::FetchReply {
                item: rng.next(),
                data,
            }
        }
    }
}

/// Feeds `stream` to a fresh decoder in chunks drawn by `next_chunk`,
/// decoding every completed frame as a `NodeMsg`.
fn decode_stream(stream: &[u8], mut next_chunk: impl FnMut() -> usize) -> Vec<NodeMsg> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < stream.len() {
        let take = next_chunk().clamp(1, stream.len() - pos);
        dec.extend(&stream[pos..pos + take]);
        pos += take;
        while let Some(frame) = dec.next_frame().expect("well-formed stream") {
            out.push(NodeMsg::from_bytes(frame).expect("decodable message"));
        }
    }
    assert_eq!(dec.pending(), 0, "trailing bytes left in the decoder");
    out
}

#[test]
fn node_msgs_survive_one_byte_torn_reads() {
    let mut rng = Xoshiro256::seed_from(0xF4A7);
    let msgs: Vec<NodeMsg> = (0..300).map(|_| random_msg(&mut rng)).collect();
    let mut stream = Vec::new();
    for m in &msgs {
        stream.extend_from_slice(&encode_frame(&m.to_bytes()));
    }
    // Worst case: the stream arrives one byte at a time.
    assert_eq!(decode_stream(&stream, || 1), msgs);
}

#[test]
fn node_msgs_survive_random_chunking() {
    let mut rng = Xoshiro256::seed_from(0xBEEF);
    let msgs: Vec<NodeMsg> = (0..300).map(|_| random_msg(&mut rng)).collect();
    let mut stream = Vec::new();
    for m in &msgs {
        stream.extend_from_slice(&encode_frame(&m.to_bytes()));
    }
    for trial in 0..20u64 {
        let mut chunk_rng = Xoshiro256::seed_from(trial);
        let decoded = decode_stream(&stream, || chunk_rng.below(900) + 1);
        assert_eq!(decoded, msgs, "trial {trial}");
    }
}
