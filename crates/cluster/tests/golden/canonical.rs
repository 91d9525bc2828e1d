//! One canonical value of every driver ↔ worker frame: what
//! `protocol_golden.rs` pins byte for byte, and what the wire fuzz in the
//! root package mutates.
//!
//! Every integer, float and string in the `Job` and `Done` payloads is
//! distinct from every other and from its default, so swapping two fields
//! of one type in the codec changes the bytes. (Three bools cannot all
//! differ: `distributed_cache` differs from the other two.) The structs
//! are built as literals, so a new field of `Scenario`, `WorkloadProfile`,
//! `NodeSpec`, `RunReport` or `BusyTimes` does not compile here until it
//! has a canonical value too. A second `Job` and a second `Done` carry
//! what the first ones cannot: the other two `Dist` variants and the
//! `None` of both `Option` fields.

use rocket_cluster::{ToDriver, ToWorker, PROTOCOL_VERSION};
use rocket_core::{BusyTimes, NodeSpec, RunReport, Scenario, TransportKind, WorkloadProfile};
use rocket_stats::Dist;

fn scenario() -> Scenario {
    // Two devices, each field set apart from its neighbour's.
    let mut gpus = NodeSpec::uniform(2, 0, 0).gpus;
    for (k, g) in gpus.iter_mut().enumerate() {
        let k = k as u64;
        g.name = format!("golden-gpu-{k}");
        g.memory_bytes = 2001 + k;
        g.compute_scale = 2.25 + k as f64;
        g.h2d_bytes_per_sec = 4.5e9 + k as f64;
        g.d2h_bytes_per_sec = 5.5e9 + k as f64;
        g.generation = ["golden-gen-0", "golden-gen-1"][k as usize];
    }
    Scenario {
        // Four distribution slots hold five of the seven `Dist` variants;
        // `sparse_scenario` holds the other two.
        workload: WorkloadProfile {
            name: "golden-workload",
            items: 1001,
            file_bytes: 1002,
            item_bytes: 1003,
            parse: Dist::Truncated {
                inner: Box::new(Dist::Normal {
                    mean: 0.11,
                    std: 0.12,
                }),
                lo: 0.13,
                hi: f64::INFINITY,
            },
            preprocess: Some(Dist::Gamma {
                shape: 0.21,
                scale: 0.22,
            }),
            compare: Dist::LogNormal {
                mean: 0.31,
                std: 0.32,
            },
            postprocess: Dist::Exponential { mean: 0.41 },
            paper_device_slots: 1004,
            paper_host_slots: 1005,
        },
        nodes: vec![NodeSpec {
            gpus,
            device_slots: 1006,
            host_slots: 1007,
        }],
        distributed_cache: false,
        hops: 1008,
        job_limit: 1009,
        cpu_threads: 1010,
        leaf_pairs: 1011,
        static_partition: true,
        transport: TransportKind::Socket,
        storage_bandwidth: 1.25e9,
        storage_latency: 3.5e-3,
        net_bandwidth: 6.5e9,
        net_latency: 4.5e-5,
        record_completions: true,
        seed: 1012,
    }
}

/// [`scenario`] with the two `Dist` variants it lacks and no
/// preprocess stage.
fn sparse_scenario() -> Scenario {
    let mut s = scenario();
    s.workload.parse = Dist::Truncated {
        inner: Box::new(Dist::Constant(0.51)),
        lo: 0.52,
        hi: 0.53,
    };
    s.workload.preprocess = None;
    s.workload.postprocess = Dist::Uniform { lo: 0.61, hi: 0.62 };
    s
}

fn report() -> RunReport {
    let mut r = RunReport {
        backend: "golden-backend",
        elapsed: 12.5,
        items: 3001,
        pairs: 3002,
        failed_pairs: 3003,
        loads: 3004,
        remote_fetches: 3005,
        io_bytes: 3006,
        net_bytes: 3007,
        net_msgs: 3008,
        steals: 3009,
        busy: BusyTimes {
            preprocess: 0.5,
            compare: 1.5,
            h2d: 2.5,
            d2h: 3.5,
            cpu: 4.5,
            io: 5.5,
        },
        device_cache: Default::default(),
        host_cache: Default::default(),
        directory: Default::default(),
        pairs_per_node: vec![3026, 3027],
        completions: Some(Default::default()),
        sim_shards: 3031,
        sim_windows: 3032,
        degraded: true,
    };
    for (k, c) in [&mut r.device_cache, &mut r.host_cache]
        .into_iter()
        .enumerate()
    {
        let base = 3010 + 6 * k as u64;
        c.hits = base;
        c.hits_pending = base + 1;
        c.misses = base + 2;
        c.capacity_stalls = base + 3;
        c.evictions = base + 4;
        c.aborts = base + 5;
    }
    r.directory.hits_at_hop = vec![3022, 3023];
    r.directory.misses = 3024;
    r.directory.messages_sent = 3025;
    if let Some(s) = &mut r.completions {
        s.record(0, 3028);
        s.record(0, 3029);
        s.record(3, 3030);
    }
    r
}

/// One value per `ToWorker` variant, in tag order, plus the sparse
/// `Job`. Each arm of the exhaustive match names the value that follows
/// its variant's, so a new variant does not compile until it is given a
/// place in the chain.
pub fn to_worker() -> Vec<ToWorker> {
    let mut out = Vec::new();
    let mut next = Some(ToWorker::Job {
        id: 4001,
        scenario: scenario(),
    });
    while let Some(frame) = next {
        next = match &frame {
            ToWorker::Job { id: 4001, .. } => Some(ToWorker::Job {
                id: 4006,
                scenario: sparse_scenario(),
            }),
            ToWorker::Job { .. } => Some(ToWorker::Ping { nonce: 4002 }),
            ToWorker::Ping { .. } => Some(ToWorker::Shutdown),
            ToWorker::Shutdown => None,
        };
        out.push(frame);
    }
    out
}

/// One value per `ToDriver` variant, in tag order, plus a `Done` without
/// completions (chained as in [`to_worker`]).
pub fn to_driver() -> Vec<ToDriver> {
    let mut out = Vec::new();
    let mut next = Some(ToDriver::Ready {
        version: PROTOCOL_VERSION,
    });
    while let Some(frame) = next {
        next = match &frame {
            ToDriver::Ready { .. } => Some(ToDriver::Pong { nonce: 4003 }),
            ToDriver::Pong { .. } => Some(ToDriver::Done {
                id: 4004,
                report: report(),
            }),
            ToDriver::Done { id: 4004, .. } => Some(ToDriver::Done {
                id: 4007,
                report: RunReport {
                    completions: None,
                    ..report()
                },
            }),
            ToDriver::Done { .. } => Some(ToDriver::Failed {
                id: 4005,
                error: "golden failure".into(),
            }),
            ToDriver::Failed { .. } => None,
        };
        out.push(frame);
    }
    out
}
