//! Layer kernels: timed calls into each crate's public functions, strictly
//! from outside. They do not depend on the workload, so every traced run
//! measures them, with inputs drawn from the seed where the layer takes
//! data.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rocket::apps::{ForensicsApp, ForensicsDataset};
use rocket::cache::{Directory, DirectoryMsg, Lookup, Resolution, SlotCache};
use rocket::comm::{encode_frame, FrameDecoder, Transport, TransportKind, Wire};
use rocket::core::engine::messages::NodeMsg;
use rocket::core::{Application, Backend, Pair, Replications, RunReport, Scenario};
use rocket::gpu::{DeviceProfile, VirtualDevice};
use rocket::sim::{CalendarQueue, EventQueue, SimBackend, SlabEventQueue};
use rocket::steal::{Block, JobLimiter, StealPool, StealPoolConfig, TaskDeque, WorkerTopology};
use rocket::storage::{MemStore, ObjectStore};
use rocket::trace::perflog::{parse_jsonl, write_jsonl};
use rocket::trace::{PerfLog, PerfMeta, PerfRollup};
use rocket::Study;
use rocket_bench::anchors;

use crate::stats::{median, percentile};
use crate::timing::secs_per_call;
use crate::workloads::cluster::{seed_sweep, toy_cell};
use crate::workloads::rt::{forensics_config, SerialReference, EDGE};
use crate::workloads::{Ctx, Scale};
use crate::Metrics;

/// Payload of the 64 KB kernels: one pre-processed 128 × 128 item.
const ITEM_BYTES: usize = EDGE * EDGE * 4;
/// Standing events in the queue kernels.
const QUEUE_DEPTH: u64 = 4096;
/// Input sizes that the batch length does not scale: full for measured
/// runs, seconds-long in a debug build for the self-tests.
struct Sizes {
    /// Rounds per `run_rounds` call.
    rounds: u32,
    /// Round trips behind the socket latency percentiles.
    rtt_samples: usize,
    /// 64 KB payloads per throughput call (16 MB at full size).
    bulk_frames: usize,
    /// Items of the `StealPool::run` kernel.
    pool_items: u64,
    /// Cells of the study kernels, as in `cluster-study`.
    study_cells: u64,
    /// Images of the serial baseline, as in the rt workloads.
    serial_images: u64,
    /// The scenario whose perf log the trace kernels write, parse and roll
    /// up.
    logged: fn() -> Scenario,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                rounds: 200,
                rtt_samples: 3000,
                bulk_frames: 256,
                pool_items: 256,
                study_cells: 96,
                serial_images: 192,
                logged: anchors::sixteen_nodes_4gpu_n256_distcache,
            },
            Scale::Test => Sizes {
                rounds: 10,
                rtt_samples: 50,
                bulk_frames: 4,
                pool_items: 48,
                study_cells: 4,
                serial_images: 8,
                logged: anchors::single_node_n96,
            },
        }
    }
}

/// Runs every kernel whose metric `out` does not hold yet.
pub fn measure(seed: u64, scale: Scale, ctx: Ctx, out: &mut Metrics) {
    let sizes = Sizes::of(scale);
    let mut kernel = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        if !out.contains_key(name) {
            let value = ctx.scope(&format!("kernel.{name}"), |_| f());
            out.insert(name, value);
        }
    };

    // sim
    kernel(
        "sim.event_queue_ns",
        &mut || queue_ns(SlabEventQueue::new()),
    );
    kernel("sim.calendar_queue_ns", &mut || {
        queue_ns(CalendarQueue::new())
    });

    // cache
    kernel("cache.slot_hit_ns", &mut || {
        let mut cache: SlotCache<u32> = SlotCache::with_item_space(1024, 1024);
        for item in 0..1024 {
            if let Lookup::MustLoad(slot) = cache.get(item, || 0) {
                cache.publish(slot);
            }
        }
        let mut rng = rocket::stats::Xoshiro256::seed_from(seed);
        1e9 * secs_per_call(|| {
            let item = rng.below(1024) as u64;
            if let Lookup::Hit(slot) = cache.get(black_box(item), || 0) {
                cache.release(slot);
            }
        })
    });
    kernel("cache.slot_evict_ns", &mut || {
        // Cycling through twice the capacity in LRU order: every access
        // evicts, loads and publishes.
        let mut cache: SlotCache<u32> = SlotCache::with_item_space(512, 1024);
        let mut next = 0u64;
        1e9 * secs_per_call(|| {
            if let Lookup::MustLoad(slot) = cache.get(black_box(next % 1024), || 0) {
                cache.publish(slot);
            }
            next += 1;
        })
    });
    for (name, hops) in [
        ("cache.dir_lookup_ns_h1", 1),
        ("cache.dir_lookup_ns_h4", 4),
        ("cache.dir_lookup_ns_h8", 8),
    ] {
        kernel(name, &mut || directory_lookup_ns(hops));
    }

    // steal
    kernel("steal.block_split_ns", &mut || {
        let root = Block::root(4980);
        1e9 * secs_per_call(|| {
            black_box(black_box(root).split());
        })
    });
    kernel("steal.decompose_n512_us", &mut || {
        1e6 * secs_per_call(|| {
            let mut deque = TaskDeque::new();
            deque.push(Block::root(black_box(512)));
            let mut leaves = 0u64;
            while let Some(block) = deque.pop() {
                if block.count() <= 64 {
                    leaves += block.count();
                } else {
                    for child in block.split() {
                        deque.push(child);
                    }
                }
            }
            assert_eq!(black_box(leaves), 512 * 511 / 2);
        })
    });
    kernel("steal.pool_pairs_per_s", &mut || {
        let n = sizes.pool_items;
        let config = StealPoolConfig {
            leaf_pairs: 32,
            seed,
            ..Default::default()
        };
        let secs = secs_per_call(|| {
            let count = AtomicU64::new(0);
            StealPool::run(
                black_box(n),
                &WorkerTopology::single_node(2),
                &config,
                |_, _| {
                    count.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(count.load(Ordering::Relaxed), n * (n - 1) / 2);
        });
        (n * (n - 1) / 2) as f64 / secs
    });
    kernel("steal.run_tasks_dispatch_us", &mut || {
        1e6 * secs_per_call(|| {
            StealPool::run_tasks(black_box(64), 2, |i| {
                black_box(i);
            })
        })
    });
    kernel("steal.run_rounds_barrier_us", &mut || {
        rounds_us(2, sizes.rounds)
    });
    kernel("steal.run_rounds_inline_us", &mut || {
        rounds_us(1, sizes.rounds)
    });
    kernel("steal.limiter_acquire_ns", &mut || {
        let limiter = JobLimiter::new(16);
        1e9 * secs_per_call(|| {
            black_box(&limiter).acquire();
            limiter.release();
        })
    });

    // comm
    let probe = NodeMsg::Dir(DirectoryMsg::Probe {
        item: 123_456,
        requester: 7,
        rest: [1, 2, 3].into_iter().collect(),
        hop: 2,
    });
    let fetch = NodeMsg::FetchReply {
        item: 42,
        data: Some(Bytes::from(vec![7u8; ITEM_BYTES])),
    };
    let mbps = |secs: f64| ITEM_BYTES as f64 / secs / 1e6;
    kernel("comm.encode_probe_ns", &mut || {
        1e9 * secs_per_call(|| {
            black_box(black_box(&probe).to_bytes());
        })
    });
    kernel("comm.decode_probe_ns", &mut || {
        let encoded = probe.to_bytes();
        1e9 * secs_per_call(|| {
            black_box(NodeMsg::from_bytes(black_box(encoded.clone())).expect("decode"));
        })
    });
    kernel("comm.encode_fetch_64k_mbps", &mut || {
        mbps(secs_per_call(|| {
            black_box(black_box(&fetch).to_bytes());
        }))
    });
    kernel("comm.decode_fetch_64k_mbps", &mut || {
        let encoded = fetch.to_bytes();
        mbps(secs_per_call(|| {
            black_box(NodeMsg::from_bytes(black_box(encoded.clone())).expect("decode"));
        }))
    });
    let payload = vec![7u8; ITEM_BYTES];
    kernel("comm.frame_encode_mbps", &mut || {
        mbps(secs_per_call(|| {
            black_box(encode_frame(black_box(&payload)));
        }))
    });
    kernel("comm.frame_decode_mbps", &mut || {
        let frame = encode_frame(&payload);
        let mut decoder = FrameDecoder::new();
        mbps(secs_per_call(|| {
            for chunk in frame.chunks(4096) {
                decoder.extend(black_box(chunk));
            }
            let got = decoder.next_frame().expect("well-formed frame");
            assert_eq!(black_box(got).map(|f| f.len()), Some(ITEM_BYTES));
        }))
    });
    kernel("comm.local_rtt_us", &mut || {
        with_echo_peer(TransportKind::Local, |me| 1e6 * secs_per_call(|| ping(me)))
    });
    let mut socket_rtts = Vec::new();
    kernel("comm.socket_rtt_us", &mut || {
        socket_rtts = with_echo_peer(TransportKind::Socket, |me| {
            (0..sizes.rtt_samples)
                .map(|_| {
                    let start = Instant::now();
                    ping(me);
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect()
        });
        median(&socket_rtts)
    });
    kernel("comm.socket_rtt_p95_us", &mut || {
        percentile(&socket_rtts, 95)
    });
    kernel("comm.socket_mbps", &mut || {
        let bulk = Bytes::from(payload.clone());
        with_echo_peer(TransportKind::Socket, |me| {
            let secs = secs_per_call(|| {
                for _ in 0..sizes.bulk_frames {
                    me.send(1, bulk.clone()).expect("send to the peer");
                }
                // The peer swallows bulk frames; the echo of this ping
                // says it has taken them all in.
                ping(me);
            });
            (sizes.bulk_frames * ITEM_BYTES) as f64 / secs / 1e6
        })
    });

    // core
    let cell = toy_cell().with_seed(seed);
    let cell_report = SimBackend::new().run(&cell).expect("toy cell");
    kernel("core.codec_scenario_ns", &mut || {
        1e9 * secs_per_call(|| {
            let bytes = black_box(&cell).to_bytes();
            black_box(Scenario::from_bytes(bytes).expect("scenario round trip"));
        })
    });
    kernel("core.codec_report_ns", &mut || {
        1e9 * secs_per_call(|| {
            let bytes = black_box(&cell_report).to_bytes();
            black_box(RunReport::from_bytes(bytes).expect("report round trip"));
        })
    });
    kernel("core.codec_scenario_bytes", &mut || {
        cell.to_bytes().len() as f64
    });
    kernel("core.codec_report_bytes", &mut || {
        cell_report.to_bytes().len() as f64
    });
    let sweep = seed_sweep(seed, sizes.study_cells);
    let sim = SimBackend::new();
    let study = |threads: usize| {
        Study::new("kernel")
            .threads(threads)
            .run(&sim, &sweep)
            .expect("local study")
    };
    kernel("core.study_sim_wall_s", &mut || {
        secs_per_call(|| {
            black_box(study(2));
        })
    });
    kernel("core.study_overhead_us_per_cell", &mut || {
        let through_study = secs_per_call(|| {
            black_box(study(1));
        });
        let direct = secs_per_call(|| {
            for cell in sweep.cells() {
                black_box(sim.run(black_box(&cell.scenario)).expect("direct run"));
            }
        });
        (through_study - direct) / sizes.study_cells as f64 * 1e6
    });
    let study_report = study(1);
    kernel("core.report_json_mbps", &mut || {
        let bytes = study_report.to_json().len() as f64;
        bytes
            / 1e6
            / secs_per_call(|| {
                black_box(black_box(&study_report).to_json());
            })
    });
    kernel("core.report_csv_us", &mut || {
        1e6 * secs_per_call(|| {
            black_box(black_box(&study_report).to_csv());
        })
    });
    kernel("core.replications_8_wall_ms", &mut || {
        let replications = Replications::new(seed, 8).threads(2);
        1e3 * secs_per_call(|| {
            black_box(
                replications
                    .run(&sim, black_box(&cell))
                    .expect("replications"),
            );
        })
    });

    // gpu
    let device = VirtualDevice::new(DeviceProfile::titanx_maxwell());
    let buffers: Vec<_> = (0..3)
        .map(|_| device.alloc(ITEM_BYTES as u64).expect("device memory"))
        .collect();
    kernel("gpu.alloc_free_ns", &mut || {
        1e9 * secs_per_call(|| {
            let id = device.alloc(black_box(ITEM_BYTES as u64)).expect("alloc");
            device.free(id).expect("free");
        })
    });
    kernel("gpu.h2d_64k_mbps", &mut || {
        mbps(secs_per_call(|| {
            device
                .copy_h2d(black_box(&payload), buffers[0])
                .expect("h2d");
        }))
    });
    kernel("gpu.d2h_64k_mbps", &mut || {
        let mut host = Vec::with_capacity(ITEM_BYTES);
        mbps(secs_per_call(|| {
            device.copy_d2h(buffers[0], &mut host).expect("d2h");
            black_box(&host);
        }))
    });
    kernel("gpu.launch_empty_ns", &mut || {
        1e9 * secs_per_call(|| {
            device
                .launch(&buffers[..2], buffers[2], |inputs, output| {
                    black_box((inputs.len(), output.len()));
                })
                .expect("launch");
        })
    });

    // storage
    kernel("storage.memstore_get_ns", &mut || {
        let store = MemStore::new();
        let keys: Vec<String> = (0..64).map(ForensicsDataset::key).collect();
        for key in &keys {
            store.put(key.clone(), payload.clone());
        }
        let mut next = 0;
        1e9 * secs_per_call(|| {
            black_box(
                store
                    .read(black_box(&keys[next % keys.len()]))
                    .expect("stored"),
            );
            next += 1;
        })
    });

    // apps
    let config = forensics_config(2, seed);
    let images = ForensicsDataset::generate(config.clone());
    let app = ForensicsApp::new(&config);
    let raw = images.store.read(&app.file_for(0)).expect("image 0");
    let mut parsed = vec![0u8; app.parsed_bytes()];
    app.parse(0, &raw, &mut parsed).expect("parse");
    let mut items = [vec![0u8; app.item_bytes()], vec![0u8; app.item_bytes()]];
    for (i, item) in items.iter_mut().enumerate() {
        let raw = images.store.read(&app.file_for(i as u64)).expect("image");
        let mut parsed = vec![0u8; app.parsed_bytes()];
        app.parse(i as u64, &raw, &mut parsed).expect("parse");
        app.preprocess(i as u64, &parsed, item).expect("preprocess");
    }
    let mut result = vec![0u8; app.result_bytes()];
    kernel("apps.parse_us", &mut || {
        let mut out = vec![0u8; app.parsed_bytes()];
        1e6 * secs_per_call(|| app.parse(0, black_box(&raw), &mut out).expect("parse"))
    });
    kernel("apps.preprocess_us", &mut || {
        let mut out = vec![0u8; app.item_bytes()];
        1e6 * secs_per_call(|| {
            app.preprocess(0, black_box(&parsed), &mut out)
                .expect("preprocess")
        })
    });
    kernel("apps.compare_us", &mut || {
        1e6 * secs_per_call(|| {
            app.compare(
                (0, black_box(&items[0])),
                (1, black_box(&items[1])),
                &mut result,
            )
            .expect("compare")
        })
    });
    kernel("apps.postprocess_us", &mut || {
        1e6 * secs_per_call(|| {
            black_box(app.postprocess(Pair::new(0, 1), black_box(&result)));
        })
    });
    kernel("apps.serial_pairs_per_s", &mut || {
        // The rt workloads' data set, through the stages on one thread.
        let config = forensics_config(sizes.serial_images, seed);
        let dataset = ForensicsDataset::generate(config.clone());
        SerialReference::compute(&ForensicsApp::new(&config), &dataset.store).pairs_per_s()
    });

    // trace: one perf log (of the 16-node anchor at full size), then its
    // file format and rollup.
    let perf = PerfLog::enabled();
    let anchor = (sizes.logged)().with_seed(seed);
    sim.run_with_perf(&anchor, &perf).expect("anchor run");
    let records = perf.take();
    let meta = PerfMeta {
        run: "kernel".into(),
        cell: None,
        backend: "sim".into(),
    };
    let text = write_jsonl(&meta, &records);
    let text_mb = text.len() as f64 / 1e6;
    kernel("trace.perflog_write_mbps", &mut || {
        text_mb
            / secs_per_call(|| {
                black_box(write_jsonl(&meta, black_box(&records)));
            })
    });
    kernel("trace.perflog_parse_mbps", &mut || {
        text_mb
            / secs_per_call(|| {
                black_box(parse_jsonl(black_box(&text)).expect("own output parses"));
            })
    });
    kernel("trace.rollup_ms", &mut || {
        1e3 * secs_per_call(|| {
            black_box(PerfRollup::from_records(black_box(&records)));
        })
    });
}

/// Schedule + pop at a standing depth of [`QUEUE_DEPTH`], in ns per pair of
/// operations.
fn queue_ns(mut queue: impl EventQueue<u64>) -> f64 {
    for i in 0..QUEUE_DEPTH {
        queue.schedule_at(i, i);
    }
    1e9 * secs_per_call(|| {
        let (at, _) = queue.pop().expect("standing events");
        let t = at + 1000;
        queue.schedule_at(black_box(t), t);
    })
}

/// One distributed lookup, `begin_lookup` through the `handle` chain until
/// the requester resolves it, over 16 directories with probe depth `hops`.
/// No host holds anything, so every probe chain runs to its end.
fn directory_lookup_ns(hops: usize) -> f64 {
    const NODES: usize = 16;
    const ITEMS: u64 = 4096;
    let mut dirs: Vec<Directory> = (0..NODES).map(|n| Directory::new(n, NODES, hops)).collect();
    let mut lookup = |k: u64| {
        // Items recur with a different requester each round, so mediators
        // hold candidates to probe.
        let item = k % ITEMS;
        let requester = ((k / ITEMS + k) % NODES as u64) as usize;
        let (mut to, mut msg) = dirs[requester].begin_lookup(black_box(item));
        loop {
            let (outgoing, resolution) = dirs[to].handle(msg, |_| false);
            if to == requester && resolution != Resolution::InFlight {
                break;
            }
            let Some((next_to, next_msg)) = outgoing.into_iter().next() else {
                break;
            };
            to = next_to;
            msg = next_msg;
        }
    };
    // Fill the candidate lists before timing.
    for k in 0..ITEMS * hops as u64 {
        lookup(k);
    }
    let mut k = ITEMS * hops as u64;
    1e9 * secs_per_call(|| {
        lookup(k);
        k += 1;
    })
}

/// µs per empty `run_rounds` round of two tasks on `threads` threads.
fn rounds_us(threads: usize, rounds: u32) -> f64 {
    let secs = secs_per_call(|| {
        let mut left = rounds;
        StealPool::run_rounds(
            2,
            black_box(threads),
            |i| {
                black_box(i);
            },
            || {
                left -= 1;
                left > 0
            },
        );
    });
    secs / rounds as f64 * 1e6
}

/// Connects two endpoints of `kind` and runs `f` on rank 0 while rank 1
/// echoes small messages, swallows large ones and stops on an empty one.
fn with_echo_peer<R>(kind: TransportKind, f: impl FnOnce(&dyn Transport) -> R) -> R {
    let mut endpoints = kind.connect(2).expect("two connected endpoints");
    let peer = endpoints.pop().expect("rank 1");
    let me = endpoints.pop().expect("rank 0");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(msg) = peer.recv_timeout(Duration::from_secs(60)) {
                match msg.payload.len() {
                    0 => break,
                    1..=64 => peer.send(0, msg.payload).expect("echo"),
                    _ => {}
                }
            }
        });
        let result = f(me.as_ref());
        me.send(1, Bytes::new()).expect("stop the echo peer");
        result
    })
}

/// One 64-byte round trip to the echo peer.
fn ping(me: &dyn Transport) {
    me.send(1, Bytes::from_static(&[7u8; 64])).expect("ping");
    let echo = me
        .recv_timeout(Duration::from_secs(60))
        .expect("echo within a minute");
    assert_eq!(black_box(echo).payload.len(), 64);
}
