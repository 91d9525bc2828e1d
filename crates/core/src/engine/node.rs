//! The per-node conductor: Rocket's asynchronous job engine.
//!
//! One conductor thread per node owns all scheduling state — the device and
//! host slot caches, in-flight load pipelines, the distributed-cache
//! directory — and dispatches stage tasks to the resource threads (§4.3).
//! Resource threads post completion events back; the conductor advances the
//! affected job/fill state machines. Because a single thread owns the state,
//! the cache policy code is the *same synchronous state machine* the
//! simulator drives, and there are no lock-ordering hazards.
//!
//! ## Pipelines (the paper's Fig 2 / Fig 4)
//!
//! A job `(i, j)` bound to device `d` acquires read leases on both items in
//! `d`'s device cache, then: compare + result read-back (GPU thread) →
//! post-process (conductor) → output. Work crosses each thread boundary
//! once per batch, not once per pair:
//!
//! * a submitter sends one `Submit` per grant of job permits, carrying as
//!   many pairs of its leaf as there were free permits;
//! * the conductor blocks for one event, then handles every event already
//!   queued (a *drain*); at the end of the drain it sends each device's
//!   ready compares as one GPU task, split only where a task would hold
//!   more than half the node's permits — and a compare leaves at once
//!   when its device has nothing queued, so an idle GPU never waits on a
//!   long drain;
//! * the GPU task runs its compares in order, each with its own result
//!   read-back and its own `Compare` perf record, and posts one
//!   `ComparesDone`; the conductor post-processes every pair, fails only
//!   the pairs whose compare failed, and returns the batch's permits in one
//!   release.
//!
//! A device-cache miss starts a *device
//! fill*: host-cache hit → H2D copy; host-cache miss → *host fill*:
//! distributed lookup → remote fetch, or the full load pipeline — read
//! (I/O) → parse (CPU) → staging upload (H2D) → pre-process (GPU, directly
//! into the device slot) → write-back (D2H) into the host slot. Items are
//! therefore always written to both the device and host caches, which is
//! what the level-3 distributed cache relies on.
//!
//! ## Deadlock freedom
//!
//! Jobs acquire leases in `(left, right)` order and *release everything*
//! before parking when the cache reports `Busy`, so no job holds-and-waits
//! on cache capacity. Fill pipelines never wait on jobs. Staging buffers
//! are drained by a queue that makes progress whenever a pipeline stage
//! completes. A write-back pins its device slot with a read lease only
//! until its D2H copy completes, and the copy depends on nothing, so the
//! pin is transient: a job that finds the slot pinned parks as a capacity
//! waiter and the unpin wakes it.
//!
//! ## State layout
//!
//! Fill state is laid out as in the simulator: one `DevFill` row per
//! device × item and one `ItemRow` per item, indexed by item id. Only jobs
//! are keyed by id.
//!
//! ## Load failures
//!
//! A failed read, parse, upload, pre-process or copy is an *item failure*:
//! the item's load restarts from storage until it has failed
//! `MAX_ITEM_FAILURES` times, after which every pair that depends on it
//! fails with the last cause.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use rocket_sanitize::Mutex;

use rocket_cache::{
    CacheStats, Directory, DirectoryStats, FxHashMap, ItemId, Lookup, Resolution, SlotCache,
    SlotIdx,
};
use rocket_comm::{CommSnapshot, RecvError, Transport, Wire};
use rocket_gpu::{BufferId, VirtualDevice};
use rocket_steal::{JobLimiter, Pair};
use rocket_storage::ObjectStore;
use rocket_trace::{PerfKind, PerfRecord};

use crate::app::Application;
use crate::engine::messages::NodeMsg;
use crate::engine::resource::{Recorder, Recording, Resource, Task};
use crate::scenario::Scenario;

/// Job identifier within one node.
type JobId = u64;

/// Failed loads of one item before it is given up on.
const MAX_ITEM_FAILURES: u32 = 5;

/// What a parked waiter should do when woken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cont {
    /// Re-attempt lease acquisition for a job.
    Job(JobId),
    /// Re-attempt the host-cache acquire of a device fill.
    DevFill { dev: usize, item: ItemId },
}

/// Conductor events (posted by resource threads, the comm thread, and
/// submitters).
pub(crate) enum Event {
    /// New pair jobs bound to a device, one limiter permit each.
    Submit { pairs: Vec<Pair>, dev: usize },
    /// Storage read finished.
    IoDone {
        item: ItemId,
        result: Result<Bytes, String>,
    },
    /// CPU parse finished (pre-process path: parsed bytes returned).
    ParseDone {
        item: ItemId,
        result: Result<Vec<u8>, String>,
    },
    /// CPU parse wrote directly into the host slot (no-pre-process path).
    ParseIntoHostDone {
        item: ItemId,
        result: Result<(), String>,
    },
    /// Parsed bytes were uploaded to the staging buffer.
    StagingUploaded {
        item: ItemId,
        result: Result<(), String>,
    },
    /// Pre-process kernel finished on `dev` (item now in the device slot).
    PreprocessDone {
        dev: usize,
        item: ItemId,
        result: Result<(), String>,
    },
    /// Device slot `dslot` was written back into the host slot.
    ItemCopiedToHost {
        dev: usize,
        dslot: SlotIdx,
        item: ItemId,
        result: Result<(), String>,
    },
    /// Host slot was copied into the device slot (fill via host hit).
    DeviceFillCopied {
        dev: usize,
        item: ItemId,
        result: Result<(), String>,
    },
    /// A GPU task of compares on `dev` finished: one result per job, each
    /// already read back to the host.
    ComparesDone {
        dev: usize,
        results: Vec<(JobId, Result<Vec<u8>, String>)>,
    },
    /// A message from a peer node (with the sender's rank from the
    /// transport envelope).
    Remote { from: usize, msg: NodeMsg },
    /// Stop the conductor (sent after cluster-wide completion).
    Shutdown,
}

struct Job {
    pair: Pair,
    dev: usize,
    left: Option<SlotIdx>,
    right: Option<SlotIdx>,
    /// The item this job last stalled on for capacity. Retries acquire it
    /// first so the retry consumes the slot freed by our own release —
    /// guaranteeing progress instead of live-locking on the other item.
    stalled: Option<ItemId>,
    /// Set once the compare kernel is scheduled; guards against duplicate
    /// scheduling from redundant wake-ups.
    comparing: bool,
}

/// A compare whose job holds both leases, waiting for its device's next
/// GPU task.
struct Compare {
    job: JobId,
    pair: Pair,
    left: BufferId,
    right: BufferId,
}

/// One device's fill of one item.
#[derive(Debug, Default)]
struct DevFill {
    /// Device slot reserved in WRITE state (`Some` while a fill is in
    /// flight).
    slot: Option<SlotIdx>,
    /// Host slot leased by the in-flight H2D copy, if one is running.
    h2d_lease: Option<SlotIdx>,
    /// Continuations to run when the fill publishes or aborts.
    waiters: Vec<Cont>,
}

/// The in-flight load (or remote fetch) of an item into a host slot.
#[derive(Debug)]
struct HostFill {
    hslot: SlotIdx,
    origin_dev: usize,
    staging: Option<BufferId>,
    parsed: Option<Vec<u8>>,
}

/// Per-item row: the in-flight host fill and the failure record.
#[derive(Debug, Default)]
struct ItemRow {
    fill: Option<HostFill>,
    /// Failed loads so far.
    failures: u32,
    /// The last failure's cause, once the item is given up on.
    dead: Option<String>,
}

/// Statistics and outcome of one node's run.
#[derive(Debug)]
pub struct NodeReport {
    /// Node rank.
    pub node: usize,
    /// Merged per-device cache counters (level 1).
    pub device_cache: CacheStats,
    /// Host cache counters (level 2).
    pub host_cache: CacheStats,
    /// Distributed-cache lookup counters (level 3).
    pub directory: DirectoryStats,
    /// Executions of the load pipeline ℓ on this node.
    pub loads: u64,
    /// Items obtained from remote host caches.
    pub remote_fetches: u64,
    /// Pairs that failed permanently, with causes.
    pub failed: Vec<(Pair, String)>,
    /// One stage record per stage the node's resource threads executed,
    /// plus one per post-process the conductor ran, stamped on the
    /// run-wide clock (empty unless the run is recorded).
    pub perf: Vec<PerfRecord>,
    /// Transport traffic counters (zero on single-node runs).
    pub comm: CommSnapshot,
}

/// Handle used by the cluster driver to feed and finalize a node.
pub(crate) struct NodeHandle {
    pub events: Sender<Event>,
    /// One permit per in-flight job: the driver acquires one per pair
    /// before [`NodeHandle::submit`] and waits for all of them back to
    /// drain.
    pub limiter: Arc<JobLimiter>,
    thread: JoinHandle<NodeReport>,
    /// The transport and the comm pump blocked on it (multi-node runs
    /// only); the handle keeps the transport to wake the pump.
    pump: Option<(Arc<dyn Transport>, JoinHandle<()>)>,
}

impl NodeHandle {
    /// Submits pair jobs bound to a device (the caller must hold one
    /// limiter permit per pair; the conductor releases each at its job's
    /// completion).
    pub fn submit(&self, pairs: Vec<Pair>, dev: usize) {
        self.events
            .send(Event::Submit { pairs, dev })
            .expect("conductor gone");
    }

    /// Stops the conductor and the comm pump and returns the node report.
    ///
    /// The conductor is joined first, so its report (and with it the
    /// transport's traffic snapshot) is taken before the pump's wake token
    /// is sent: the token is never counted as traffic. The token is an
    /// empty message to this node itself; the pump exits on it, or has
    /// already exited on `Disconnected` because every peer hung up.
    pub fn finish(self) -> NodeReport {
        let _ = self.events.send(Event::Shutdown);
        let report = self.thread.join();
        if let Some((transport, pump)) = self.pump {
            let _ = transport.send(transport.node(), Bytes::new());
            let _ = pump.join();
        }
        report.expect("conductor panicked")
    }
}

/// Shared sink for completed pair outputs, appended by every worker.
type SharedOutputs<A> = Arc<Mutex<Vec<(Pair, <A as Application>::Output)>>>;

/// How long one receive of the comm pump waits. Not a poll interval: the
/// pump wakes on a message, its wake token or `Disconnected`, and on a
/// timeout simply waits again. So a lost wake token hangs the run rather
/// than costing it a timeout.
const PUMP_WAIT: Duration = Duration::from_secs(24 * 60 * 60);

/// Spawns node `node_id` of `scenario`: conductor thread + resource threads
/// (+ comm pump when a transport is given). `recording` carries the
/// run-wide clock of a recorded run; `None` records nothing and reads no
/// clock.
///
/// The comm pump blocks on the transport and forwards every peer message
/// to the conductor. It has no stop flag: it exits on the wake token that
/// [`NodeHandle::finish`] sends (an empty message to itself; every
/// `NodeMsg` encodes at least its tag byte, so no real message is empty),
/// on `Disconnected`, or when the conductor is gone.
pub(crate) fn spawn_node<A: Application>(
    app: Arc<A>,
    scenario: Arc<Scenario>,
    node_id: usize,
    store: Arc<dyn ObjectStore>,
    transport: Option<Box<dyn Transport>>,
    outputs: SharedOutputs<A>,
    recording: Option<Recording>,
) -> NodeHandle {
    let (events_tx, events_rx) = unbounded::<Event>();
    // Each job pins up to two device-cache slots; capping in-flight jobs at
    // slots/2 per device guarantees all leases fit simultaneously, which
    // keeps tiny-cache configurations free of eviction livelock. A
    // write-back's pin can take a slot beyond that budget, but only until
    // its D2H copy completes; a job it crowds out parks as a capacity
    // waiter and the unpin wakes it.
    let spec = &scenario.nodes[node_id];
    let lease_cap = (spec.gpus.len() * (spec.device_slots / 2)).max(1);
    let limiter = Arc::new(JobLimiter::new(scenario.job_limit.min(lease_cap)));

    // The conductor sends, the comm pump receives; both share one
    // transport handle (the receive side stays single-consumer — the pump
    // is the only caller of `recv_timeout`).
    let transport: Option<Arc<dyn Transport>> = transport.map(Arc::from);

    let pump = transport.as_ref().map(|t| {
        let transport = Arc::clone(t);
        let tx = events_tx.clone();
        let thread = std::thread::Builder::new()
            .name(format!("rocket-comm-{node_id}"))
            .spawn(move || loop {
                match transport.recv_timeout(PUMP_WAIT) {
                    // The wake token from `NodeHandle::finish`.
                    Ok(incoming) if incoming.payload.is_empty() => break,
                    Ok(incoming) => {
                        let from = incoming.from;
                        match NodeMsg::from_bytes(incoming.payload) {
                            Ok(msg) => {
                                if tx.send(Event::Remote { from, msg }).is_err() {
                                    break;
                                }
                            }
                            Err(e) => {
                                debug_assert!(false, "undecodable message: {e}");
                            }
                        }
                    }
                    Err(RecvError::Timeout) => continue,
                    // Every peer hung up: cluster-wide shutdown.
                    Err(RecvError::Disconnected) => break,
                }
            })
            .expect("failed to spawn comm thread");
        (Arc::clone(t), thread)
    });

    let handle_events = events_tx.clone();
    let thread = {
        let limiter = Arc::clone(&limiter);
        std::thread::Builder::new()
            .name(format!("rocket-conductor-{node_id}"))
            .spawn(move || {
                let conductor = Conductor::new(
                    app, scenario, node_id, store, transport, outputs, limiter, events_rx,
                    events_tx, recording,
                );
                conductor.run()
            })
            .expect("failed to spawn conductor")
    };

    NodeHandle {
        events: handle_events,
        limiter,
        thread,
        pump,
    }
}

struct Conductor<A: Application> {
    app: Arc<A>,
    scenario: Arc<Scenario>,
    node_id: usize,
    store: Arc<dyn ObjectStore>,
    transport: Option<Arc<dyn Transport>>,

    io: Resource<Event>,
    cpu: Resource<Event>,
    gpu: Vec<Resource<Event>>,
    h2d: Vec<Resource<Event>>,
    d2h: Vec<Resource<Event>>,
    devices: Vec<Arc<VirtualDevice>>,

    dev_cache: Vec<SlotCache<Cont>>,
    dev_slot_bufs: Vec<Vec<BufferId>>,
    host_cache: SlotCache<Cont>,
    host_slots: Vec<Arc<Mutex<Vec<u8>>>>,

    staging_pool: Vec<Vec<BufferId>>,
    staging_queue: Vec<VecDeque<ItemId>>,
    /// One result buffer per device: compares on a device run one at a
    /// time on its launch thread, each reading its result back before the
    /// next one starts.
    result_bufs: Vec<BufferId>,
    /// GPU tasks sent to each device whose completion is not handled yet.
    gpu_queued: Vec<usize>,
    /// Each device's compares that wait for the end of the drain.
    ready: Vec<Vec<Compare>>,

    /// Keyed, not a slab: a redundant wake-up can name a finished job, so
    /// ids are never reused. Fx-hashed: a deterministic hasher keeps any
    /// incidental iteration order a pure function of the insertion
    /// sequence (lint RL-D001).
    jobs: FxHashMap<JobId, Job>,
    next_job: JobId,
    pending_conts: VecDeque<Cont>,
    /// `dev_fills[dev][item]`.
    dev_fills: Vec<Vec<DevFill>>,
    /// `items[item]`.
    items: Vec<ItemRow>,

    directory: Directory,
    loads: u64,
    remote_fetches: u64,
    failed: Vec<(Pair, String)>,
    outputs: SharedOutputs<A>,
    /// Times the conductor's own post-processes (recorded runs only).
    recorder: Recorder,
    limiter: Arc<JobLimiter>,
    events_rx: Receiver<Event>,
    shutdown: bool,
}

impl<A: Application> Conductor<A> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        app: Arc<A>,
        scenario: Arc<Scenario>,
        node_id: usize,
        store: Arc<dyn ObjectStore>,
        transport: Option<Arc<dyn Transport>>,
        outputs: SharedOutputs<A>,
        limiter: Arc<JobLimiter>,
        events_rx: Receiver<Event>,
        events_tx: Sender<Event>,
        recording: Option<Recording>,
    ) -> Self {
        let spec = &scenario.nodes[node_id];
        let n_dev = spec.gpus.len();
        let item_count = app.item_count() as usize;
        let item_bytes = app.item_bytes() as u64;
        let parsed_bytes = app.parsed_bytes() as u64;
        let result_bytes = app.result_bytes() as u64;
        let staging_per_dev = if app.has_preprocess() { 4 } else { 0 };

        let mut devices = Vec::with_capacity(n_dev);
        let mut dev_cache = Vec::with_capacity(n_dev);
        let mut dev_slot_bufs = Vec::with_capacity(n_dev);
        let mut staging_pool = Vec::with_capacity(n_dev);
        let mut result_bufs = Vec::with_capacity(n_dev);
        for profile in &spec.gpus {
            // The threaded runtime treats the configured slot count as
            // authoritative: expand virtual memory if the profile is too
            // small (the simulator models capacities faithfully instead).
            let needed = spec.device_slots as u64 * item_bytes
                + staging_per_dev as u64 * parsed_bytes
                + result_bytes;
            let profile = if profile.memory_bytes < needed {
                profile.clone().with_memory(needed)
            } else {
                profile.clone()
            };
            let device = Arc::new(VirtualDevice::new(profile));
            let slots: Vec<BufferId> = (0..spec.device_slots)
                .map(|_| device.alloc(item_bytes).expect("device slot alloc"))
                .collect();
            let staging: Vec<BufferId> = (0..staging_per_dev)
                .map(|_| device.alloc(parsed_bytes).expect("staging alloc"))
                .collect();
            result_bufs.push(device.alloc(result_bytes).expect("result alloc"));
            devices.push(device);
            // Dense item map: application items are 0..n, so the cache's
            // O(1) array-indexed table applies (same mode the simulator
            // runs in) instead of hashing every lookup.
            dev_cache.push(SlotCache::with_item_space(spec.device_slots, item_count));
            dev_slot_bufs.push(slots);
            staging_pool.push(staging);
        }

        let host_slots: Vec<Arc<Mutex<Vec<u8>>>> = (0..spec.host_slots)
            .map(|_| Arc::new(Mutex::named("host_slots", vec![0u8; item_bytes as usize])))
            .collect();

        let spawn = |name: &str, threads: usize| {
            Resource::spawn(name, threads, events_tx.clone(), recording)
        };
        let io = spawn("io", 1);
        let cpu = spawn("cpu", scenario.cpu_threads);
        let gpu: Vec<_> = (0..n_dev).map(|_| spawn("gpu", 1)).collect();
        let h2d: Vec<_> = (0..n_dev).map(|_| spawn("h2d", 1)).collect();
        let d2h: Vec<_> = (0..n_dev).map(|_| spawn("d2h", 1)).collect();

        let directory = Directory::new(node_id, scenario.nodes.len(), scenario.hops);
        let staging_queue = vec![VecDeque::new(); n_dev];

        Self {
            app,
            scenario,
            node_id,
            store,
            transport,
            io,
            cpu,
            gpu,
            h2d,
            d2h,
            devices,
            dev_cache,
            dev_slot_bufs,
            host_cache: SlotCache::with_item_space(host_slots.len(), item_count),
            host_slots,
            staging_pool,
            staging_queue,
            result_bufs,
            gpu_queued: vec![0; n_dev],
            ready: (0..n_dev).map(|_| Vec::new()).collect(),
            jobs: FxHashMap::default(),
            next_job: 0,
            pending_conts: VecDeque::new(),
            dev_fills: (0..n_dev)
                .map(|_| (0..item_count).map(|_| DevFill::default()).collect())
                .collect(),
            items: (0..item_count).map(|_| ItemRow::default()).collect(),
            directory,
            loads: 0,
            remote_fetches: 0,
            failed: Vec::new(),
            outputs,
            recorder: Recorder::new(recording),
            limiter,
            events_rx,
            shutdown: false,
        }
    }

    /// Drains the event queue: blocks for one event, then handles every
    /// event already queued, then sends each device's ready compares.
    fn run(mut self) -> NodeReport {
        while let Ok(event) = self.events_rx.recv() {
            self.handle(event);
            while !self.shutdown {
                let Ok(event) = self.events_rx.try_recv() else {
                    break;
                };
                self.handle(event);
            }
            for dev in 0..self.ready.len() {
                self.launch_compares(dev);
            }
            if self.shutdown {
                break;
            }
        }
        self.finish()
    }

    fn finish(self) -> NodeReport {
        let mut device_cache = CacheStats::default();
        for c in &self.dev_cache {
            device_cache.merge(&c.stats());
        }
        // Resource threads finish what is still queued, then hand back
        // what they recorded.
        let perf = [self.io, self.cpu]
            .into_iter()
            .chain(self.gpu)
            .chain(self.h2d)
            .chain(self.d2h)
            .flat_map(Resource::shutdown)
            .chain(self.recorder.into_records())
            .collect();
        NodeReport {
            node: self.node_id,
            device_cache,
            host_cache: self.host_cache.stats(),
            directory: self.directory.stats().clone(),
            loads: self.loads,
            remote_fetches: self.remote_fetches,
            failed: self.failed,
            perf,
            comm: self
                .transport
                .as_ref()
                .map(|t| t.stats().snapshot())
                .unwrap_or_default(),
        }
    }

    /// Handles one event and the continuations it queued.
    fn handle(&mut self, event: Event) {
        match event {
            Event::Submit { pairs, dev } => {
                for pair in pairs {
                    self.submit_job(pair, dev);
                }
            }
            Event::IoDone { item, result } => self.on_io_done(item, result),
            Event::ParseDone { item, result } => self.on_parse_done(item, result),
            Event::ParseIntoHostDone { item, result } => match result {
                Ok(()) => {
                    self.loads += 1;
                    self.publish_host(item);
                }
                Err(e) => self.item_failure(item, e),
            },
            Event::StagingUploaded { item, result } => match result {
                Ok(()) => self.schedule_preprocess(item),
                Err(e) => self.item_failure(item, e),
            },
            Event::PreprocessDone { dev, item, result } => {
                self.gpu_task_done(dev);
                self.on_preprocess_done(item, result)
            }
            Event::ItemCopiedToHost {
                dev,
                dslot,
                item,
                result,
            } => {
                // Unpin the device slot whether or not the copy succeeded.
                if let Some(cont) = self.dev_cache[dev].release(dslot) {
                    self.run_cont(cont);
                }
                match result {
                    Ok(()) => self.publish_host(item),
                    Err(e) => self.item_failure(item, e),
                }
            }
            Event::DeviceFillCopied { dev, item, result } => {
                self.on_device_fill_copied(dev, item, result)
            }
            Event::ComparesDone { dev, results } => self.on_compares_done(dev, results),
            Event::Remote { from, msg } => self.on_remote(from, msg),
            Event::Shutdown => self.shutdown = true,
        }
        self.drain_conts();
    }

    // ---- job lifecycle -------------------------------------------------

    fn submit_job(&mut self, pair: Pair, dev: usize) {
        let id = self.next_job;
        self.next_job += 1;
        self.jobs.insert(
            id,
            Job {
                pair,
                dev,
                left: None,
                right: None,
                stalled: None,
                comparing: false,
            },
        );
        self.try_acquire_job(id);
    }

    fn try_acquire_job(&mut self, id: JobId) {
        let Some(job) = self.jobs.get(&id) else {
            return;
        };
        if job.comparing {
            return;
        }
        let (pair, dev, stalled) = (job.pair, job.dev, job.stalled);
        for item in [pair.left, pair.right] {
            if let Some(cause) = &self.items[item as usize].dead {
                let cause = format!("item {item}: {cause}");
                self.fail_job(id, cause);
                return;
            }
        }
        // Acquire left, then right — except that a retry after a capacity
        // stall acquires the stalled item first (progress guarantee). On
        // Busy release everything and park.
        let mut order = [(0usize, pair.left), (1usize, pair.right)];
        if stalled == Some(pair.right) {
            order.swap(0, 1);
        }
        for (which, item) in order {
            let held = {
                let job = &self.jobs[&id];
                if which == 0 {
                    job.left
                } else {
                    job.right
                }
            };
            if held.is_some() {
                continue;
            }
            match self.dev_cache[dev].get(item, || Cont::Job(id)) {
                Lookup::Hit(slot) => {
                    let job = self.jobs.get_mut(&id).expect("job exists");
                    if which == 0 {
                        job.left = Some(slot);
                    } else {
                        job.right = Some(slot);
                    }
                }
                Lookup::Pending => return,
                Lookup::MustLoad(slot) => {
                    self.start_dev_fill(dev, item, slot);
                    self.dev_fills[dev][item as usize]
                        .waiters
                        .push(Cont::Job(id));
                    return;
                }
                Lookup::Busy => {
                    // Deadlock avoidance: never hold-and-wait on capacity.
                    self.jobs.get_mut(&id).expect("job exists").stalled = Some(item);
                    self.release_job_leases(id);
                    return;
                }
            }
        }
        let job = self.jobs.get_mut(&id).expect("job exists");
        job.stalled = None;
        job.comparing = true;
        self.start_compare(id);
    }

    fn release_job_leases(&mut self, id: JobId) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        let dev = job.dev;
        let leases = [job.left.take(), job.right.take()];
        for slot in leases.into_iter().flatten() {
            if let Some(cont) = self.dev_cache[dev].release(slot) {
                self.run_cont(cont);
            }
        }
    }

    /// Queues a job's compare for its device's next GPU task, and sends
    /// that task at once if the device has nothing queued.
    fn start_compare(&mut self, id: JobId) {
        let job = &self.jobs[&id];
        let dev = job.dev;
        self.ready[dev].push(Compare {
            job: id,
            pair: job.pair,
            left: self.dev_slot_bufs[dev][job.left.expect("left lease held")],
            right: self.dev_slot_bufs[dev][job.right.expect("right lease held")],
        });
        if self.gpu_queued[dev] == 0 {
            self.launch_compares(dev);
        }
    }

    /// Sends `dev`'s ready compares as GPU tasks of at most half the
    /// node's permits each. A task runs its compares in order through the
    /// device's one result buffer, each reading its result back before
    /// the next starts, and times each as one `Compare` stage.
    ///
    /// The cap keeps the GPU fed: permits come back when a whole task
    /// finishes, so the completion of a task that held every permit would
    /// leave the device idle until the submitter refilled it. At half the
    /// permits, a completion frees enough to wake the submitter (the
    /// limiter's half-limit rule) while the next task still runs.
    fn launch_compares(&mut self, dev: usize) {
        let cap = (self.limiter.limit() / 2).max(1);
        while !self.ready[dev].is_empty() {
            let take = self.ready[dev].len().min(cap);
            let batch: Vec<Compare> = self.ready[dev].drain(..take).collect();
            let result_buf = self.result_bufs[dev];
            let device = Arc::clone(&self.devices[dev]);
            let app = Arc::clone(&self.app);
            self.submit_gpu(
                dev,
                Box::new(move |rec| {
                    let results = batch
                        .into_iter()
                        .map(|c| {
                            let result = rec.time(PerfKind::Compare, || {
                                let mut out = Vec::with_capacity(app.result_bytes());
                                device
                                    .launch(&[c.left, c.right], result_buf, |ins, out| {
                                        app.compare(
                                            (c.pair.left, ins[0]),
                                            (c.pair.right, ins[1]),
                                            out,
                                        )
                                    })
                                    .map_err(|e| e.to_string())
                                    .and_then(|r| r.map_err(|e| e.to_string()))
                                    .and_then(|()| {
                                        device
                                            .copy_d2h(result_buf, &mut out)
                                            .map_err(|e| format!("result copy: {e}"))
                                    })
                                    .map(|()| out)
                            });
                            (c.job, result)
                        })
                        .collect();
                    Some(Event::ComparesDone { dev, results })
                }),
            );
        }
    }

    fn submit_gpu(&mut self, dev: usize, task: Task<Event>) {
        self.gpu_queued[dev] += 1;
        self.gpu[dev].submit(task);
    }

    /// A GPU task on `dev` finished: if that leaves the device with
    /// nothing queued, its ready compares leave now, not at the end of
    /// the drain.
    fn gpu_task_done(&mut self, dev: usize) {
        self.gpu_queued[dev] -= 1;
        if self.gpu_queued[dev] == 0 {
            self.launch_compares(dev);
        }
    }

    fn on_compares_done(&mut self, dev: usize, results: Vec<(JobId, Result<Vec<u8>, String>)>) {
        self.gpu_task_done(dev);
        let permits = results.len();
        let mut outputs = Vec::with_capacity(permits);
        for (id, result) in results {
            // The result is on the host: the device slots are free again.
            self.release_job_leases(id);
            let pair = self.jobs.remove(&id).expect("compared job exists").pair;
            match result {
                // Decoding a result takes nanoseconds: cheaper here than a
                // round trip through the CPU pool.
                Ok(bytes) => outputs.push((
                    pair,
                    self.recorder
                        .time(PerfKind::Postprocess, || self.app.postprocess(pair, &bytes)),
                )),
                Err(e) => self.failed.push((pair, format!("compare failed: {e}"))),
            }
        }
        self.outputs.lock().extend(outputs);
        self.limiter.release_many(permits);
    }

    /// Fails a job that never reached its compare.
    fn fail_job(&mut self, id: JobId, cause: String) {
        self.release_job_leases(id);
        if let Some(job) = self.jobs.remove(&id) {
            self.failed.push((job.pair, cause));
            self.limiter.release();
        }
    }

    // ---- device fill ---------------------------------------------------

    fn start_dev_fill(&mut self, dev: usize, item: ItemId, dslot: SlotIdx) {
        self.dev_fills[dev][item as usize].slot = Some(dslot);
        self.continue_dev_fill(dev, item);
    }

    fn continue_dev_fill(&mut self, dev: usize, item: ItemId) {
        let fill = &self.dev_fills[dev][item as usize];
        let Some(dslot) = fill.slot else {
            return; // already completed or aborted
        };
        // An H2D copy is already filling this slot: a second wake (e.g. a
        // parked token plus the origin-continuation of `publish_host`)
        // must not take a second host lease.
        if fill.h2d_lease.is_some() {
            return;
        }
        if self.items[item as usize].dead.is_some() {
            self.abort_dev_fill(dev, item);
            return;
        }
        match self.host_cache.get(item, || Cont::DevFill { dev, item }) {
            Lookup::Hit(hslot) => {
                self.dev_fills[dev][item as usize].h2d_lease = Some(hslot);
                let dbuf = self.dev_slot_bufs[dev][dslot];
                let payload = Arc::clone(&self.host_slots[hslot]);
                let device = Arc::clone(&self.devices[dev]);
                self.h2d[dev].submit(Box::new(move |rec| {
                    let result = rec.time(PerfKind::CopyIn, || {
                        device
                            .copy_h2d(&payload.lock(), dbuf)
                            .map_err(|e| e.to_string())
                    });
                    Some(Event::DeviceFillCopied { dev, item, result })
                }));
            }
            Lookup::Pending => {}
            Lookup::MustLoad(hslot) => self.start_host_fill(item, hslot, dev),
            Lookup::Busy => {}
        }
    }

    fn on_device_fill_copied(&mut self, dev: usize, item: ItemId, result: Result<(), String>) {
        if let Some(hslot) = self.dev_fills[dev][item as usize].h2d_lease.take() {
            if let Some(cont) = self.host_cache.release(hslot) {
                self.run_cont(cont);
            }
        }
        match result {
            Ok(()) => self.complete_dev_fill(dev, item, false),
            Err(e) => self.item_failure(item, format!("H2D copy failed: {e}")),
        }
    }

    /// Publishes a filled device slot and wakes its waiters. With `pin`, the
    /// conductor keeps a read lease on the slot (no hit is counted); the
    /// caller releases it.
    fn complete_dev_fill(&mut self, dev: usize, item: ItemId, pin: bool) {
        let Some(dslot) = self.dev_fills[dev][item as usize].slot.take() else {
            return;
        };
        let waiters = if pin {
            self.dev_cache[dev].publish_and_read(dslot)
        } else {
            self.dev_cache[dev].publish(dslot)
        };
        self.pending_conts.extend(waiters);
        self.pending_conts
            .extend(self.dev_fills[dev][item as usize].waiters.drain(..));
        // An unpinned published slot is evictable until a reader takes it:
        // fresh capacity, so one parked capacity waiter gets a retry (a
        // pinned slot hands its waiter over at the unpin instead).
        if let Some(w) = self.dev_cache[dev].pop_capacity_waiter() {
            self.run_cont(w);
        }
    }

    fn abort_dev_fill(&mut self, dev: usize, item: ItemId) {
        let Some(dslot) = self.dev_fills[dev][item as usize].slot.take() else {
            return;
        };
        let waiters = self.dev_cache[dev].abort(dslot);
        self.pending_conts.extend(waiters);
        self.pending_conts
            .extend(self.dev_fills[dev][item as usize].waiters.drain(..));
    }

    // ---- host fill -----------------------------------------------------

    fn start_host_fill(&mut self, item: ItemId, hslot: SlotIdx, origin_dev: usize) {
        self.items[item as usize].fill = Some(HostFill {
            hslot,
            origin_dev,
            staging: None,
            parsed: None,
        });
        if self.scenario.distributed_cache && self.scenario.nodes.len() > 1 {
            let (to, msg) = self.directory.begin_lookup(item);
            self.send_to(to, NodeMsg::Dir(msg));
        } else {
            self.local_load(item);
        }
    }

    fn local_load(&mut self, item: ItemId) {
        let path = self.app.file_for(item);
        let store = Arc::clone(&self.store);
        self.io.submit(Box::new(move |rec| {
            let result = rec.time(PerfKind::Read, || {
                store.read(&path).map_err(|e| e.to_string())
            });
            Some(Event::IoDone { item, result })
        }));
    }

    fn on_io_done(&mut self, item: ItemId, result: Result<Bytes, String>) {
        let raw = match result {
            Ok(raw) => raw,
            Err(e) => {
                self.item_failure(item, format!("storage read failed: {e}"));
                return;
            }
        };
        let Some(fill) = &self.items[item as usize].fill else {
            return;
        };
        let app = Arc::clone(&self.app);
        if app.has_preprocess() {
            let parsed_bytes = app.parsed_bytes();
            self.cpu.submit(Box::new(move |rec| {
                let result = rec.time(PerfKind::Parse, || {
                    let mut parsed = vec![0u8; parsed_bytes];
                    app.parse(item, &raw, &mut parsed)
                        .map(|()| parsed)
                        .map_err(|e| e.to_string())
                });
                Some(Event::ParseDone { item, result })
            }));
        } else {
            // No GPU pre-processing: parse straight into the host slot.
            let payload = Arc::clone(&self.host_slots[fill.hslot]);
            self.cpu.submit(Box::new(move |rec| {
                let result = rec.time(PerfKind::Parse, || {
                    app.parse(item, &raw, &mut payload.lock())
                        .map_err(|e| e.to_string())
                });
                Some(Event::ParseIntoHostDone { item, result })
            }));
        }
    }

    fn on_parse_done(&mut self, item: ItemId, result: Result<Vec<u8>, String>) {
        match result {
            Ok(parsed) => {
                let Some(fill) = &mut self.items[item as usize].fill else {
                    return;
                };
                fill.parsed = Some(parsed);
                self.try_stage(item);
            }
            Err(e) => self.item_failure(item, format!("parse failed: {e}")),
        }
    }

    /// Uploads parsed bytes to a staging buffer when one is available.
    fn try_stage(&mut self, item: ItemId) {
        let Some(fill) = &mut self.items[item as usize].fill else {
            return;
        };
        let dev = fill.origin_dev;
        let Some(staging) = self.staging_pool[dev].pop() else {
            self.staging_queue[dev].push_back(item);
            return;
        };
        fill.staging = Some(staging);
        let parsed = fill.parsed.take().expect("parsed bytes present");
        let device = Arc::clone(&self.devices[dev]);
        self.h2d[dev].submit(Box::new(move |rec| {
            let result = rec.time(PerfKind::CopyIn, || {
                device.copy_h2d(&parsed, staging).map_err(|e| e.to_string())
            });
            Some(Event::StagingUploaded { item, result })
        }));
    }

    fn schedule_preprocess(&mut self, item: ItemId) {
        let Some(fill) = &self.items[item as usize].fill else {
            return;
        };
        let dev = fill.origin_dev;
        let staging = fill.staging.expect("staging held");
        let Some(dslot) = self.dev_fills[dev][item as usize].slot else {
            // The originating device fill vanished (item died): give the
            // staging buffer back and drop the pipeline.
            self.return_staging(item);
            return;
        };
        let dbuf = self.dev_slot_bufs[dev][dslot];
        let device = Arc::clone(&self.devices[dev]);
        let app = Arc::clone(&self.app);
        self.submit_gpu(
            dev,
            Box::new(move |rec| {
                let result = rec.time(PerfKind::Preprocess, || {
                    device
                        .launch(&[staging], dbuf, |ins, out| {
                            app.preprocess(item, ins[0], out)
                        })
                        .map_err(|e| e.to_string())
                        .and_then(|r| r.map_err(|e| e.to_string()))
                });
                Some(Event::PreprocessDone { dev, item, result })
            }),
        );
    }

    /// Gives the item's staging buffer (if it holds one) back to its
    /// device's pool and stages the next queued item.
    fn return_staging(&mut self, item: ItemId) {
        let Some(fill) = &mut self.items[item as usize].fill else {
            return;
        };
        let dev = fill.origin_dev;
        if let Some(staging) = fill.staging.take() {
            self.staging_pool[dev].push(staging);
            if let Some(next) = self.staging_queue[dev].pop_front() {
                self.try_stage(next);
            }
        }
    }

    fn on_preprocess_done(&mut self, item: ItemId, result: Result<(), String>) {
        let Some(fill) = &self.items[item as usize].fill else {
            return;
        };
        let (dev, hslot) = (fill.origin_dev, fill.hslot);
        self.return_staging(item);
        match result {
            Ok(()) => {
                self.loads += 1;
                // The item is ready on the device: publish the device slot
                // first (jobs can start comparing), then write it back to
                // the host slot (Fig 4's "copy device slot to host slot").
                // The D2H thread reads the slot, so the write-back pins it
                // until `ItemCopiedToHost`; unpinned, an eviction could
                // refill it mid-copy.
                let Some(dslot) = self.dev_fills[dev][item as usize].slot else {
                    return;
                };
                let dbuf = self.dev_slot_bufs[dev][dslot];
                self.complete_dev_fill(dev, item, true);
                let payload = Arc::clone(&self.host_slots[hslot]);
                let device = Arc::clone(&self.devices[dev]);
                self.d2h[dev].submit(Box::new(move |rec| {
                    let result = rec.time(PerfKind::CopyOut, || {
                        let mut tmp = Vec::new();
                        device
                            .copy_d2h(dbuf, &mut tmp)
                            .map(|()| {
                                let mut buf = payload.lock();
                                let n = buf.len().min(tmp.len());
                                buf[..n].copy_from_slice(&tmp[..n]);
                            })
                            .map_err(|e| e.to_string())
                    });
                    Some(Event::ItemCopiedToHost {
                        dev,
                        dslot,
                        item,
                        result,
                    })
                }));
            }
            Err(e) => self.item_failure(item, format!("preprocess failed: {e}")),
        }
    }

    fn publish_host(&mut self, item: ItemId) {
        let Some(fill) = self.items[item as usize].fill.take() else {
            return;
        };
        let waiters = self.host_cache.publish(fill.hslot);
        self.pending_conts.extend(waiters);
        // Fresh capacity (see complete_dev_fill): retry one parked waiter.
        if let Some(w) = self.host_cache.pop_capacity_waiter() {
            self.run_cont(w);
        }
        // The originating device fill continues if it still needs the host
        // copy (no-pre-process and remote-fetch paths).
        self.continue_dev_fill(fill.origin_dev, item);
    }

    /// Counts a failed load of `item`: the load restarts from storage until
    /// the item has failed [`MAX_ITEM_FAILURES`] times; then the item is
    /// given up on and its fills abort, so dependent jobs fail with `cause`.
    fn item_failure(&mut self, item: ItemId, cause: String) {
        let row = &mut self.items[item as usize];
        row.failures += 1;
        if row.failures < MAX_ITEM_FAILURES {
            if row.fill.is_some() {
                self.return_staging(item);
                self.local_load(item);
            }
            return;
        }
        row.dead = Some(cause);
        self.return_staging(item);
        if let Some(fill) = self.items[item as usize].fill.take() {
            let waiters = self.host_cache.abort(fill.hslot);
            self.pending_conts.extend(waiters);
            self.abort_dev_fill(fill.origin_dev, item);
        }
    }

    // ---- distributed cache ----------------------------------------------

    fn send_to(&mut self, to: usize, msg: NodeMsg) {
        let t = self
            .transport
            .as_ref()
            .expect("transport for multi-node run");
        // Best effort: a `Disconnected` peer means the cluster is shutting
        // down after global drain — the message can no longer matter (the
        // directory and fetch protocols both tolerate dropped messages).
        let _ = t.send(to, msg.to_bytes());
    }

    fn on_remote(&mut self, from: usize, msg: NodeMsg) {
        let item = msg.item();
        // Rows are indexed by item id: a peer naming an id outside this
        // run's items is dropped before it can touch one.
        if item >= self.items.len() as u64 {
            return;
        }
        match msg {
            NodeMsg::Dir(dir_msg) => {
                let host_cache = &self.host_cache;
                let (outgoing, resolution) = self
                    .directory
                    .handle(dir_msg, |i| host_cache.contains_ready(i));
                for (to, m) in outgoing {
                    self.send_to(to, NodeMsg::Dir(m));
                }
                // Only `Found`/`NotFound` resolve, and both name `item`.
                let filling = self.items[item as usize].fill.is_some();
                match resolution {
                    Resolution::InFlight => {}
                    Resolution::Found { holder, .. } => {
                        if filling {
                            self.send_to(holder, NodeMsg::Fetch { item });
                        }
                    }
                    Resolution::LoadLocally => {
                        if filling {
                            self.local_load(item);
                        }
                    }
                }
            }
            NodeMsg::Fetch { item } => {
                // Serve from the host cache if (still) resident; the lease
                // pins the slot while we copy the bytes out. A miss replies
                // `None` — the protocol is best effort and the requester
                // falls back to loading locally.
                let data = match self.host_cache.try_read(item) {
                    Some(hslot) => {
                        let data = Bytes::from(self.host_slots[hslot].lock().clone());
                        if let Some(cont) = self.host_cache.release(hslot) {
                            self.run_cont(cont);
                        }
                        Some(data)
                    }
                    None => None,
                };
                self.send_to(from, NodeMsg::FetchReply { item, data });
            }
            NodeMsg::FetchReply { item, data } => {
                let Some(fill) = &self.items[item as usize].fill else {
                    return;
                };
                match data {
                    Some(data) => {
                        {
                            let mut buf = self.host_slots[fill.hslot].lock();
                            let n = buf.len().min(data.len());
                            buf[..n].copy_from_slice(&data[..n]);
                        }
                        self.remote_fetches += 1;
                        self.publish_host(item);
                    }
                    None => self.local_load(item),
                }
            }
        }
    }

    /// Queues a continuation. Continuations are drained iteratively after
    /// each event — recursing here would overflow the stack on long waiter
    /// chains (wake → release → wake → …).
    fn run_cont(&mut self, cont: Cont) {
        self.pending_conts.push_back(cont);
    }

    fn drain_conts(&mut self) {
        while let Some(cont) = self.pending_conts.pop_front() {
            match cont {
                Cont::Job(id) => self.try_acquire_job(id),
                Cont::DevFill { dev, item } => self.continue_dev_fill(dev, item),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket_cache::DirectoryMsg;
    use rocket_storage::MemStore;

    use crate::error::AppError;

    const ITEMS: u64 = 4;

    struct Tiny;

    impl Application for Tiny {
        type Output = ();
        fn name(&self) -> &str {
            "tiny"
        }
        fn item_count(&self) -> u64 {
            ITEMS
        }
        fn file_for(&self, item: ItemId) -> String {
            item.to_string()
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
        fn parse(&self, _: ItemId, _: &[u8], _: &mut [u8]) -> Result<(), AppError> {
            Ok(())
        }
        fn compare(
            &self,
            _: (ItemId, &[u8]),
            _: (ItemId, &[u8]),
            _: &mut [u8],
        ) -> Result<(), AppError> {
            Ok(())
        }
        fn postprocess(&self, _: Pair, _: &[u8]) {}
    }

    /// Node 0 of a two-node run with the distributed cache on, and no
    /// transport: anything it tried to send would panic.
    fn conductor() -> Conductor<Tiny> {
        let scenario = Scenario::builder()
            .items(ITEMS)
            .uniform_cluster(2, 1, 4, 4)
            .build();
        let (events_tx, events_rx) = unbounded();
        Conductor::new(
            Arc::new(Tiny),
            Arc::new(scenario),
            0,
            Arc::new(MemStore::new()),
            None,
            Arc::new(Mutex::named("outputs", Vec::new())),
            Arc::new(JobLimiter::new(4)),
            events_rx,
            events_tx,
            None,
        )
    }

    fn state(c: &Conductor<Tiny>) -> String {
        format!(
            "{:?}",
            (
                &c.items,
                &c.dev_fills,
                &c.pending_conts,
                c.loads,
                c.remote_fetches,
                &c.failed,
                c.host_cache.stats(),
                c.directory.stats(),
            )
        )
    }

    #[test]
    fn peer_messages_naming_unknown_items_are_dropped() {
        let mut c = conductor();
        let before = state(&c);
        let item = ITEMS;
        let msgs = [
            NodeMsg::Fetch { item },
            NodeMsg::FetchReply {
                item,
                data: Some(Bytes::from(vec![7u8; 8])),
            },
            NodeMsg::FetchReply { item, data: None },
            NodeMsg::Dir(DirectoryMsg::Request { item, requester: 1 }),
            NodeMsg::Dir(DirectoryMsg::Probe {
                item,
                requester: 1,
                rest: Default::default(),
                hop: 1,
            }),
            NodeMsg::Dir(DirectoryMsg::Found {
                item,
                holder: 1,
                hop: 1,
            }),
            NodeMsg::Dir(DirectoryMsg::NotFound { item }),
        ];
        for msg in msgs {
            c.on_remote(1, msg);
            c.drain_conts();
            assert_eq!(state(&c), before);
        }
        assert!(c.events_rx.try_recv().is_err(), "no task was started");
        c.finish();
    }
}
