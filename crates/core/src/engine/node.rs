//! The per-node conductor: the threaded executor of [`NodeCore`].
//!
//! One conductor thread per node owns the node's [`NodeCore`] — both slot
//! cache levels, the fill rows, the jobs and the distributed-cache
//! directory — and executes it: every [`NodeIo`] call the core makes
//! becomes a task on a resource thread (§4.3), and every task posts a
//! completion event back, which the conductor feeds to the core. Because a
//! single thread owns the state, there are no lock-ordering hazards. The
//! policy itself — pipelines, deadlock freedom, the write-back pin — is
//! documented on [`NodeCore`].
//!
//! ## Batching
//!
//! Work crosses each thread boundary once per batch, not once per pair:
//!
//! * a submitter sends one `Submit` per grant of job permits, carrying as
//!   many pairs of its leaf as there were free permits;
//! * the conductor blocks for one event, then handles every event already
//!   queued (a *drain*); at the end of the drain it sends each device's
//!   ready compares as one GPU task, split only where a task would hold
//!   more than half the node's permits — and a compare leaves at once
//!   when its device has nothing queued, so an idle GPU never waits on a
//!   long drain;
//! * a GPU task is one kernel launch, which compares all of its pairs
//!   through [`Application::compare_batch`], and one read-back of their
//!   results; it logs one `Compare` perf record per pair, each an equal
//!   share of the launch, and posts one `ComparesDone`; the conductor
//!   post-processes every pair, fails only the pairs whose compare failed,
//!   and returns the batch's permits in one release.
//!
//! ## State layout
//!
//! The core holds every policy row. The conductor holds what only a
//! threaded executor has: the resource threads, the device slot, staging
//! and result buffers, the host slots' bytes, each device's ready compares
//! and queued GPU tasks, the outputs and the job limiter. Parsed bytes
//! that wait for a staging buffer sit in their device's staging queue; a
//! staging buffer travels with the upload and pre-process events that use
//! it.
//!
//! ## Load failures
//!
//! The conductor reports each stage's `Result` to the core, which retries
//! a failed stage and gives an item up after repeated failures (see
//! [`NodeCore`]). A pair fails with its item's cause through
//! [`NodeIo::fail_pair`], or with `compare failed: …` when its own compare
//! fails; either way its permit comes back.
//!
//! ## Conductor panics
//!
//! A panicking conductor, such as one whose debug-build
//! [`NodeCore::check`] trips, can never return its permits. As its thread
//! unwinds it closes every node's job limiter, so the driver's permit
//! waits return; `NodeHandle::finish` then hands the panic to the driver,
//! which re-raises it once every node has finished.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use rocket_sanitize::channel::{unbounded, Receiver, Sender};
use rocket_sanitize::Mutex;

use rocket_cache::{ItemId, SlotIdx};
use rocket_comm::{CommSnapshot, RecvError, Transport, Wire};
use rocket_gpu::{BufferId, VirtualDevice};
use rocket_steal::{JobLimiter, Pair};
use rocket_storage::ObjectStore;
use rocket_trace::{PerfKind, PerfRecord};

use crate::app::Application;
use crate::engine::messages::NodeMsg;
use crate::engine::node_core::{JobId, NodeCore, NodeIo};
use crate::engine::resource::{Recorder, Recording, Resource, Task};
use crate::scenario::Scenario;

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
    /// CPU parse finished: the parsed bytes on the pre-process path, none
    /// when the parse wrote straight into the host slot.
    ParseDone {
        item: ItemId,
        result: Result<Vec<u8>, String>,
    },
    /// Parsed bytes were uploaded to `dev`'s staging buffer `staging`,
    /// bound for device slot `dslot`.
    StagingUploaded {
        dev: usize,
        item: ItemId,
        dslot: SlotIdx,
        staging: BufferId,
        result: Result<(), String>,
    },
    /// Pre-process kernel finished on `dev` (item now in its device slot);
    /// staging buffer `staging` is free again.
    PreprocessDone {
        dev: usize,
        item: ItemId,
        staging: BufferId,
        result: Result<(), String>,
    },
    /// The item's pinned device slot was written back into its host slot.
    ItemCopiedToHost {
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

/// A compare whose job holds both leases, waiting for its device's next
/// GPU task.
struct Compare {
    job: JobId,
    pair: Pair,
    left: BufferId,
    right: BufferId,
}

/// What one node's conductor hands back when it stops: its core, whose
/// statistics `cluster::run` folds into the run's report, and what
/// only the threaded executor observes.
pub(crate) struct NodeReport {
    pub core: NodeCore,
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
    /// completion). A conductor that is gone has panicked, and
    /// [`NodeHandle::finish`] reports that; the pairs are dropped.
    pub fn submit(&self, pairs: Vec<Pair>, dev: usize) {
        let _ = self.events.send(Event::Submit { pairs, dev });
    }

    /// Stops the conductor and the comm pump and returns the node report,
    /// or the conductor's panic payload.
    ///
    /// The conductor is joined first, so its report (and with it the
    /// transport's traffic snapshot) is taken before the pump's wake token
    /// is sent: the token is never counted as traffic. The token is an
    /// empty message to this node itself; the pump exits on it, or has
    /// already exited on `Disconnected` because every peer hung up.
    pub fn finish(self) -> std::thread::Result<NodeReport> {
        let _ = self.events.send(Event::Shutdown);
        let report = self.thread.join();
        if let Some((transport, pump)) = self.pump {
            let _ = transport.send(transport.node(), Bytes::new());
            let _ = pump.join();
        }
        report
    }
}

/// The job limiter of node `node_id`: in-flight jobs capped so that every
/// job's device leases fit at once.
///
/// Each job pins up to two device-cache slots; capping in-flight jobs at
/// slots/2 per device guarantees all leases fit simultaneously, which
/// keeps tiny-cache configurations free of eviction livelock. A
/// write-back's pin can take a slot beyond that budget, but only until its
/// D2H copy completes; a job it crowds out parks as a capacity waiter and
/// the unpin wakes it.
pub(crate) fn node_limiter(scenario: &Scenario, node_id: usize) -> Arc<JobLimiter> {
    let spec = &scenario.nodes[node_id];
    let lease_cap = (spec.gpus.len() * (spec.device_slots / 2)).max(1);
    Arc::new(JobLimiter::new(scenario.job_limit.min(lease_cap)))
}

/// Closes every node's job limiter when the conductor thread that owns it
/// unwinds: a dead conductor returns no permits, and peers may wait on
/// its messages, so no node's permit wait could otherwise end.
struct CloseOnPanic(Vec<Arc<JobLimiter>>);

impl Drop for CloseOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for limiter in &self.0 {
                limiter.close();
            }
        }
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
/// (+ comm pump when a transport is given). `limiters` holds every node's
/// [`node_limiter`], indexed by rank. `recording` carries the run-wide
/// clock of a recorded run; `None` records nothing and reads no clock.
///
/// The comm pump blocks on the transport and forwards every peer message
/// to the conductor. It has no stop flag: it exits on the wake token that
/// [`NodeHandle::finish`] sends (an empty message to itself; every
/// `NodeMsg` encodes at least its tag byte, so no real message is empty),
/// on `Disconnected`, or when the conductor is gone.
#[allow(
    clippy::too_many_arguments,
    reason = "the node's run-wide handles, passed once at spawn"
)]
pub(crate) fn spawn_node<A: Application>(
    app: Arc<A>,
    scenario: Arc<Scenario>,
    node_id: usize,
    store: Arc<dyn ObjectStore>,
    transport: Option<Box<dyn Transport>>,
    outputs: SharedOutputs<A>,
    limiters: &[Arc<JobLimiter>],
    recording: Option<Recording>,
) -> NodeHandle {
    let (events_tx, events_rx) = unbounded::<Event>();
    let limiter = Arc::clone(&limiters[node_id]);

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
        let close_on_panic = CloseOnPanic(limiters.to_vec());
        std::thread::Builder::new()
            .name(format!("rocket-conductor-{node_id}"))
            .spawn(move || {
                let _close_on_panic = close_on_panic;
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
    core: NodeCore,
    exec: Executor<A>,
    events_rx: Receiver<Event>,
    shutdown: bool,
}

/// The conductor's side of every [`NodeIo`] call: resource threads,
/// buffers, outputs and the job limiter.
struct Executor<A: Application> {
    app: Arc<A>,
    store: Arc<dyn ObjectStore>,
    transport: Option<Arc<dyn Transport>>,

    storage: Resource<Event>,
    cpu: Resource<Event>,
    gpu: Vec<Resource<Event>>,
    h2d: Vec<Resource<Event>>,
    d2h: Vec<Resource<Event>>,
    devices: Vec<Arc<VirtualDevice>>,

    dev_slot_bufs: Vec<Vec<BufferId>>,
    host_slots: Vec<Arc<Mutex<Vec<u8>>>>,
    staging_pool: Vec<Vec<BufferId>>,
    /// Each device's parsed items waiting for a staging buffer:
    /// `(item, device slot, parsed bytes)`.
    staging_queue: Vec<VecDeque<(ItemId, SlotIdx, Vec<u8>)>>,
    /// Most compares one GPU task holds: half the node's permits.
    task_cap: usize,
    /// One result buffer per device, `task_cap` results long: GPU tasks on
    /// a device run one at a time on its launch thread, each reading its
    /// results back before the next one starts.
    result_bufs: Vec<BufferId>,
    /// GPU tasks sent to each device whose completion is not handled yet.
    gpu_queued: Vec<usize>,
    /// Each device's compares that wait for the end of the drain.
    ready: Vec<Vec<Compare>>,

    failed: Vec<(Pair, String)>,
    outputs: SharedOutputs<A>,
    /// Times the conductor's own post-processes (recorded runs only).
    recorder: Recorder,
    limiter: Arc<JobLimiter>,
}

impl<A: Application> Conductor<A> {
    #[allow(
        clippy::too_many_arguments,
        reason = "the node's run-wide handles, passed once at spawn"
    )]
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
        let item_bytes = app.item_bytes() as u64;
        let parsed_bytes = app.parsed_bytes() as u64;
        let result_bytes = app.result_bytes() as u64;
        let staging_per_dev = if app.has_preprocess() { 4 } else { 0 };
        let task_cap = (limiter.limit() / 2).max(1);

        let mut devices = Vec::with_capacity(n_dev);
        let mut dev_slot_bufs = Vec::with_capacity(n_dev);
        let mut staging_pool = Vec::with_capacity(n_dev);
        let mut result_bufs = Vec::with_capacity(n_dev);
        for profile in &spec.gpus {
            // The threaded runtime treats the configured slot count as
            // authoritative: expand virtual memory if the profile is too
            // small (the simulator models capacities faithfully instead).
            let needed = spec.device_slots as u64 * item_bytes
                + staging_per_dev as u64 * parsed_bytes
                + task_cap as u64 * result_bytes;
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
            result_bufs.push(
                device
                    .alloc(task_cap as u64 * result_bytes)
                    .expect("result alloc"),
            );
            devices.push(device);
            dev_slot_bufs.push(slots);
            staging_pool.push(staging);
        }

        let host_slots: Vec<Arc<Mutex<Vec<u8>>>> = (0..spec.host_slots)
            .map(|_| Arc::new(Mutex::named("host_slots", vec![0u8; item_bytes as usize])))
            .collect();

        let spawn = |name: &str, threads: usize| {
            Resource::spawn(name, threads, events_tx.clone(), recording)
        };
        let core = NodeCore::new(
            &scenario,
            node_id,
            app.item_count() as usize,
            spec.device_slots,
            spec.host_slots,
            app.has_preprocess(),
        );
        let exec = Executor {
            storage: spawn("io", 1),
            cpu: spawn("cpu", scenario.cpu_threads),
            gpu: (0..n_dev).map(|_| spawn("gpu", 1)).collect(),
            h2d: (0..n_dev).map(|_| spawn("h2d", 1)).collect(),
            d2h: (0..n_dev).map(|_| spawn("d2h", 1)).collect(),
            app,
            store,
            transport,
            devices,
            dev_slot_bufs,
            host_slots,
            staging_pool,
            staging_queue: vec![VecDeque::new(); n_dev],
            task_cap,
            result_bufs,
            gpu_queued: vec![0; n_dev],
            ready: (0..n_dev).map(|_| Vec::new()).collect(),
            failed: Vec::new(),
            outputs,
            recorder: Recorder::new(recording),
            limiter,
        };
        Self {
            core,
            exec,
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
            for dev in 0..self.exec.ready.len() {
                self.exec.launch_compares(dev);
            }
            if self.shutdown {
                break;
            }
        }
        self.finish()
    }

    fn finish(self) -> NodeReport {
        let (core, exec) = (self.core, self.exec);
        // Resource threads finish what is still queued, then hand back
        // what they recorded.
        let perf = [exec.storage, exec.cpu]
            .into_iter()
            .chain(exec.gpu)
            .chain(exec.h2d)
            .chain(exec.d2h)
            .flat_map(Resource::shutdown)
            .chain(exec.recorder.into_records())
            .collect();
        NodeReport {
            core,
            failed: exec.failed,
            perf,
            comm: exec
                .transport
                .map(|t| t.stats().snapshot())
                .unwrap_or_default(),
        }
    }

    /// Feeds one event to the core and runs the continuations it woke.
    fn handle(&mut self, event: Event) {
        let (core, exec) = (&mut self.core, &mut self.exec);
        match event {
            Event::Submit { pairs, dev } => {
                for pair in pairs {
                    core.submit(pair, dev, exec);
                }
            }
            Event::IoDone { item, result } => core.read_done(item, result, exec),
            Event::ParseDone { item, result } => core.parse_done(item, result, exec),
            Event::StagingUploaded {
                dev,
                item,
                dslot,
                staging,
                result,
            } => match result {
                Ok(()) => exec.schedule_preprocess(dev, item, dslot, staging),
                Err(e) => {
                    exec.return_staging(dev, staging);
                    core.preprocess_done(item, Err(format!("staging upload: {e}")), exec);
                }
            },
            Event::PreprocessDone {
                dev,
                item,
                staging,
                result,
            } => {
                exec.gpu_task_done(dev);
                exec.return_staging(dev, staging);
                core.preprocess_done(item, result, exec);
            }
            Event::ItemCopiedToHost { item, result } => core.write_back_done(item, result, exec),
            Event::DeviceFillCopied { dev, item, result } => core.fill_copy_done(dev, item, result),
            Event::ComparesDone { dev, results } => exec.compares_done(core, dev, results),
            Event::Remote { from, msg } => core.on_peer(from, msg, exec),
            Event::Shutdown => self.shutdown = true,
        }
        core.drain(exec);
        #[cfg(debug_assertions)]
        core.check();
    }
}

impl<A: Application> Executor<A> {
    /// Sends `dev`'s ready compares as GPU tasks of at most `task_cap`
    /// each. A task is one launch of [`Application::compare_batch`] into
    /// the device's result buffer and one read-back of every result, timed
    /// as one `Compare` stage per pair.
    ///
    /// The cap keeps the GPU fed: permits come back when a whole task
    /// finishes, so the completion of a task that held every permit would
    /// leave the device idle until the submitter refilled it. At half the
    /// permits, a completion frees enough to wake the submitter (the
    /// limiter's half-limit rule) while the next task still runs.
    fn launch_compares(&mut self, dev: usize) {
        while !self.ready[dev].is_empty() {
            let take = self.ready[dev].len().min(self.task_cap);
            let batch: Vec<Compare> = self.ready[dev].drain(..take).collect();
            let result_buf = self.result_bufs[dev];
            let device = Arc::clone(&self.devices[dev]);
            let app = Arc::clone(&self.app);
            self.submit_gpu(
                dev,
                Box::new(move |rec| {
                    let results = rec.time_shared(PerfKind::Compare, batch.len(), || {
                        run_compares(&*app, &device, result_buf, &batch)
                    });
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

    fn compares_done(
        &mut self,
        core: &mut NodeCore,
        dev: usize,
        results: Vec<(JobId, Result<Vec<u8>, String>)>,
    ) {
        self.gpu_task_done(dev);
        let permits = results.len();
        let mut outputs = Vec::with_capacity(permits);
        for (id, result) in results {
            // The result is on the host: the device slots are free again.
            core.compare_done(id);
            let (pair, _) = core.retire(id);
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

    /// Uploads parsed bytes to a staging buffer when one is available, or
    /// queues them for the next one.
    fn stage(&mut self, dev: usize, item: ItemId, dslot: SlotIdx, parsed: Vec<u8>) {
        let Some(staging) = self.staging_pool[dev].pop() else {
            self.staging_queue[dev].push_back((item, dslot, parsed));
            return;
        };
        let device = Arc::clone(&self.devices[dev]);
        self.h2d[dev].submit(Box::new(move |rec| {
            let result = rec.time(PerfKind::CopyIn, || {
                device.copy_h2d(&parsed, staging).map_err(|e| e.to_string())
            });
            Some(Event::StagingUploaded {
                dev,
                item,
                dslot,
                staging,
                result,
            })
        }));
    }

    /// Gives a staging buffer back to its device's pool and stages the
    /// next queued item.
    fn return_staging(&mut self, dev: usize, staging: BufferId) {
        self.staging_pool[dev].push(staging);
        if let Some((item, dslot, parsed)) = self.staging_queue[dev].pop_front() {
            self.stage(dev, item, dslot, parsed);
        }
    }

    fn schedule_preprocess(&mut self, dev: usize, item: ItemId, dslot: SlotIdx, staging: BufferId) {
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
                Some(Event::PreprocessDone {
                    dev,
                    item,
                    staging,
                    result,
                })
            }),
        );
    }
}

/// One GPU task: a launch of [`Application::compare_batch`] on `batch`
/// into `result_buf`, then one read-back of every result. Returns each
/// job's result bytes, or why its compare failed.
fn run_compares<A: Application>(
    app: &A,
    device: &VirtualDevice,
    result_buf: BufferId,
    batch: &[Compare],
) -> Vec<(JobId, Result<Vec<u8>, String>)> {
    let n = app.result_bytes();
    // Input 2k is pair k's left operand and 2k + 1 its right; the device
    // locks a buffer that several pairs share once.
    let inputs: Vec<BufferId> = batch.iter().flat_map(|c| [c.left, c.right]).collect();
    let mut host = Vec::new();
    let launched = device
        .launch(&inputs, result_buf, |ins, out| {
            let pairs: Vec<_> = (batch.iter().zip(ins.chunks_exact(2)))
                .map(|(c, ins)| ((c.pair.left, ins[0]), (c.pair.right, ins[1])))
                .collect();
            app.compare_batch(&pairs, &mut out[..pairs.len() * n])
        })
        .map_err(|e| e.to_string())
        .and_then(|results| {
            device
                .copy_d2h(result_buf, &mut host)
                .map_err(|e| format!("result copy: {e}"))?;
            Ok(results)
        });
    let mut results = match launched {
        Ok(results) => results.into_iter(),
        Err(e) => return batch.iter().map(|c| (c.job, Err(e.clone()))).collect(),
    };
    (batch.iter().enumerate())
        .map(|(k, c)| {
            let result = match results.next() {
                Some(Ok(())) => Ok(host[k * n..(k + 1) * n].to_vec()),
                Some(Err(e)) => Err(e.to_string()),
                None => Err("compare_batch returned no result".to_string()),
            };
            (c.job, result)
        })
        .collect()
}

impl<A: Application> NodeIo for Executor<A> {
    type Raw = Bytes;
    type Parsed = Vec<u8>;
    type Data = Bytes;

    fn read(&mut self, item: ItemId) {
        let path = self.app.file_for(item);
        let store = Arc::clone(&self.store);
        self.storage.submit(Box::new(move |rec| {
            let result = rec.time(PerfKind::Read, || {
                store.read(&path).map_err(|e| e.to_string())
            });
            Some(Event::IoDone { item, result })
        }));
    }

    fn parse(&mut self, item: ItemId, hslot: SlotIdx, raw: Bytes) {
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
            let payload = Arc::clone(&self.host_slots[hslot]);
            self.cpu.submit(Box::new(move |rec| {
                let result = rec.time(PerfKind::Parse, || {
                    app.parse(item, &raw, &mut payload.lock())
                        .map(|()| Vec::new())
                        .map_err(|e| e.to_string())
                });
                Some(Event::ParseDone { item, result })
            }));
        }
    }

    fn preprocess(&mut self, dev: usize, item: ItemId, dslot: SlotIdx, parsed: Vec<u8>) {
        self.stage(dev, item, dslot, parsed);
    }

    fn write_back(&mut self, dev: usize, item: ItemId, dslot: SlotIdx, hslot: SlotIdx) {
        let dbuf = self.dev_slot_bufs[dev][dslot];
        let payload = Arc::clone(&self.host_slots[hslot]);
        let device = Arc::clone(&self.devices[dev]);
        self.d2h[dev].submit(Box::new(move |rec| {
            // One copy into the host slot's own capacity (both hold
            // `item_bytes`). Lock order host slot → device buffer, as in
            // `fill_copy`.
            let result = rec.time(PerfKind::CopyOut, || {
                device
                    .copy_d2h(dbuf, &mut payload.lock())
                    .map_err(|e| e.to_string())
            });
            Some(Event::ItemCopiedToHost { item, result })
        }));
    }

    fn fill_copy(&mut self, dev: usize, item: ItemId, hslot: SlotIdx, dslot: SlotIdx) {
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

    /// Queues the compare for its device's next GPU task, and sends that
    /// task at once if the device has nothing queued.
    fn compare(&mut self, job: JobId, dev: usize, pair: Pair, left: SlotIdx, right: SlotIdx) {
        self.ready[dev].push(Compare {
            job,
            pair,
            left: self.dev_slot_bufs[dev][left],
            right: self.dev_slot_bufs[dev][right],
        });
        if self.gpu_queued[dev] == 0 {
            self.launch_compares(dev);
        }
    }

    fn send(&mut self, to: usize, msg: NodeMsg) {
        let t = self
            .transport
            .as_ref()
            .expect("transport for multi-node run");
        // Best effort: a `Disconnected` peer means the cluster is shutting
        // down after global drain — the message can no longer matter (the
        // directory and fetch protocols both tolerate dropped messages).
        let _ = t.send(to, msg.to_bytes());
    }

    fn serve_fetch(&mut self, to: usize, item: ItemId, hslot: Option<SlotIdx>) {
        let data = hslot.map(|h| Bytes::from(self.host_slots[h].lock().clone()));
        self.send(to, NodeMsg::FetchReply { item, data });
    }

    fn fetched(&mut self, hslot: SlotIdx, data: Bytes) {
        let mut buf = self.host_slots[hslot].lock();
        let n = buf.len().min(data.len());
        buf[..n].copy_from_slice(&data[..n]);
    }

    fn fail_pair(&mut self, pair: Pair, cause: String) {
        self.failed.push((pair, cause));
        self.limiter.release();
    }

    /// The threaded perf log records resource-thread stages only.
    fn note(&mut self, _: PerfKind, _: ItemId) {}
}
