//! The per-node state machine of Rocket, written once for both engines.
//!
//! [`NodeCore`] is the paper's per-node policy: the §4.1 device → host →
//! distributed cache levels and the §4.3 fill pipeline. It owns both slot
//! cache levels, one fill row per device slot and one per host slot, the
//! jobs, the distributed-cache [`Directory`], the queue of continuations
//! and the `loads`/`remote_fetches` counters.
//!
//! It is sans-IO. It takes one input at a time — a pair submitted to a
//! device, a pipeline stage finished, a peer's message — and performs every
//! side effect through a [`NodeIo`] call, inline and in the order the
//! policy needs it. It reads no clock, spawns nothing and touches no bytes:
//! a file's raw bytes and a fetched item's bytes are the executor's
//! associated types, which the core only hands on.
//!
//! Two executors implement [`NodeIo`]. The threaded conductor
//! (`engine::node`) maps each call to a task on a resource thread; the
//! simulator's shards (`rocket-sim`) map it to a sampled duration on a
//! modeled server. Both call [`NodeCore::drain`] after each event they
//! handle and [`NodeCore::flush`] after each drain of their event queue
//! (one simulator event is one drain), and both cap in-flight jobs with
//! [`NodeSpec::job_cap`](crate::NodeSpec::job_cap). They differ in one
//! detail: the slot counts the core is built with, and so the cap computed
//! over them. The simulator clamps them with
//! [`NodeSpec::sim_slots`](crate::NodeSpec::sim_slots); the conductor runs
//! the configured ones.
//!
//! # Pipelines (the paper's Fig 2 / Fig 4)
//!
//! A job `(i, j)` bound to device `d` acquires read leases on both items in
//! `d`'s device cache, then compares in one of `d`'s GPU tasks (below);
//! [`NodeCore::compare_done`] drops its leases and [`NodeCore::retire`]
//! ends it. A device-cache miss starts a *device fill*: host-cache hit →
//! H2D copy ([`NodeIo::fill_copy`]); host-cache miss → *host fill*:
//! distributed lookup → remote fetch, or the load pipeline — read → parse
//! → pre-process (the executor stages the parsed bytes on the device and
//! pre-processes them into the device slot) → write-back (D2H) into the
//! host slot. Without a pre-process stage, parse writes straight into the
//! host slot. Items are therefore always written to both the device and
//! host caches, which is what the distributed cache relies on.
//!
//! # GPU tasks (§4.3)
//!
//! A job holding both leases is a *ready* compare. It leaves at once, as a
//! task of one, when its device has no GPU task issued; otherwise it waits
//! for [`NodeCore::flush`], which sends each device's ready compares in
//! tasks of at most half the job cap: jobs retire when their whole task
//! ends, so at half, one task's end frees room for more while the next
//! runs. A pre-process is issued from its staging upload, and the end of
//! any task that leaves its device idle sends the device's ready compares.
//! With a pre-process stage each device has [`STAGING_BUFFERS`] staging
//! indices; an item that finds none waits in its device's queue. Its
//! parsed bytes wait in the executor under the item's id as a ticket: an
//! item has one load in flight, and bytes the core never reads need no
//! type in [`NodeIo`] or parameter on the core.
//!
//! # Deadlock freedom
//!
//! Jobs acquire leases in `(left, right)` order — except that a retry after
//! a capacity stall acquires the stalled item first, so it consumes the
//! slot its own release freed — and *release everything* before parking
//! when the cache reports `Busy`, so no job holds-and-waits on cache
//! capacity. Fill pipelines never wait on jobs. A write-back pins its
//! device slot with a read lease until its copy completes, and the copy
//! depends on nothing, so the pin is transient: a job that finds no
//! evictable slot parks as a capacity waiter and the unpin wakes it.
//!
//! # Job ids
//!
//! Jobs live in a slab, and a retired job's id is reused. A reused id is
//! never woken by a stale continuation: a job has at most one parked
//! continuation at a time (each wake-up runs from the token it pops, and a
//! retry parks at most one new one), and it reaches its compare — or
//! fails — only while running, so it has none left when it retires.
//!
//! # Load failures
//!
//! A failed read, parse, pre-process, write-back or fill copy is an *item
//! failure*. The failed step is retried — a write-back or fill copy copies
//! again, any other stage restarts the load from storage — until the item
//! has failed `MAX_ITEM_FAILURES` times. Then the item is given up on: its
//! fills abort and every job that needs it fails with the last cause
//! ([`NodeIo::fail_pair`]). Failure counts and causes live in sparse side
//! tables: failures are rare (the simulator has none).
//!
//! # State layout
//!
//! A fill's row is keyed by the slot it writes into, not by its item: one
//! `DevFill` row per device slot and one `HostFill` row per host slot,
//! so a node's fill state scales with its slot counts (§4.1), never with
//! the data set. The cache already knows which slot that is: a slot is in
//! WRITE state exactly while its fill is in flight — opened by the
//! `MustLoad` of `try_acquire` (device) or `continue_dev_fill` (host),
//! closed by `complete_dev_fill` or `abort_dev_fill` (device) and
//! `publish_host` or `kill` (host) — and a WRITE slot is never evicted, so
//! [`SlotCache::filling`] maps an item to its in-flight row. A stale
//! continuation naming an item whose fill has ended finds no WRITE slot
//! and does nothing, even when another item's fill has reused the slot.
//! The only dense per-item state a node keeps is its caches' item → slot
//! maps; the failure tables and the directory's mediator lists are sparse.

use std::collections::VecDeque;

use rocket_cache::{Directory, FxHashMap, ItemId, Lookup, Resolution, SlotCache, SlotIdx};
use rocket_steal::Pair;
use rocket_trace::PerfKind;

pub use crate::engine::messages::PeerMsg;
use crate::report::RunReport;
use crate::scenario::Scenario;

/// Job identifier within one node: its slab index.
pub type JobId = u64;

/// Failed loads of one item before it is given up on.
const MAX_ITEM_FAILURES: u32 = 5;

/// Staging indices per device when the workload pre-processes.
pub const STAGING_BUFFERS: usize = 4;

/// The side effects of a [`NodeCore`], one method each. The core calls
/// them inline, in policy order; the executor starts the work and later
/// reports its completion through the matching `NodeCore` input.
pub trait NodeIo {
    /// A file's bytes as read from storage.
    type Raw;
    /// A fetched item's bytes, as carried by [`PeerMsg::FetchReply`].
    type Data;

    /// Reads `item`'s file; completes with [`NodeCore::read_done`].
    fn read(&mut self, item: ItemId);
    /// Parses `item`: without a pre-process stage straight into host slot
    /// `hslot`, with one into bytes the executor keeps for `item`'s
    /// pre-process. Completes with [`NodeCore::parse_done`].
    fn parse(&mut self, item: ItemId, hslot: SlotIdx, raw: Self::Raw);
    /// Stages `item`'s parsed bytes on device `dev` through staging index
    /// `staging` and pre-processes them into device slot `dslot`;
    /// completes with [`NodeCore::preprocess_done`].
    fn preprocess(&mut self, dev: usize, item: ItemId, dslot: SlotIdx, staging: usize);
    /// Copies device slot `dslot` back into host slot `hslot`; completes
    /// with [`NodeCore::write_back_done`].
    fn write_back(&mut self, dev: usize, item: ItemId, dslot: SlotIdx, hslot: SlotIdx);
    /// Copies host slot `hslot` into device slot `dslot`; completes with
    /// [`NodeCore::fill_copy_done`].
    fn fill_copy(&mut self, dev: usize, item: ItemId, hslot: SlotIdx, dslot: SlotIdx);
    /// Runs `batch` as one GPU task on device `dev`; completes with
    /// [`NodeCore::task_done`], then [`NodeCore::compare_done`] and
    /// [`NodeCore::retire`] for each of its jobs.
    fn compare_batch(&mut self, dev: usize, batch: &[ReadyCompare]);
    /// Sends `msg` to peer `to`.
    fn send(&mut self, to: usize, msg: PeerMsg<Self::Data>);
    /// Answers peer `to`'s fetch of `item` with host slot `hslot`'s bytes,
    /// or with `None` when the item is not resident. The core holds a read
    /// lease on the slot for the duration of the call.
    fn serve_fetch(&mut self, to: usize, item: ItemId, hslot: Option<SlotIdx>);
    /// Stores a fetched item's bytes into host slot `hslot`.
    fn fetched(&mut self, hslot: SlotIdx, data: Self::Data);
    /// Fails `pair` permanently: an item it needs was given up on.
    fn fail_pair(&mut self, pair: Pair, cause: String);
    /// Notes a cache or directory probe event about `item`.
    fn note(&mut self, kind: PerfKind, item: ItemId);
}

/// What a parked waiter should do when woken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cont {
    /// Re-attempt lease acquisition for a job.
    Job(JobId),
    /// Re-attempt the host-cache acquire of a device fill.
    DevFill { dev: usize, item: ItemId },
}

/// A compare whose job holds both leases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyCompare {
    /// The job, as [`NodeCore::compare_done`] takes it.
    pub id: JobId,
    /// The compared pair.
    pub pair: Pair,
    /// The device slots of `[pair.left, pair.right]`.
    pub slots: [SlotIdx; 2],
}

#[derive(Debug)]
struct Job {
    pair: Pair,
    dev: usize,
    /// Device slots leased for `[pair.left, pair.right]`.
    leases: [Option<SlotIdx>; 2],
    /// The item this job last stalled on for capacity; retries acquire it
    /// first.
    stalled: Option<ItemId>,
    /// Set once the compare is started; guards against a second start from
    /// a redundant wake-up.
    comparing: bool,
}

/// The in-flight fill of one device slot (its row is idle while the slot
/// is not in WRITE state).
#[derive(Debug, Default, Clone)]
struct DevFill {
    /// Host slot leased by the in-flight fill copy, if one is running.
    h2d_lease: Option<SlotIdx>,
    /// Continuations to run when the fill publishes or aborts.
    waiters: Vec<Cont>,
}

/// The in-flight load (or remote fetch) of an item into a host slot.
#[derive(Debug, Clone, Copy)]
struct HostFill {
    /// The device whose fill started the load: the pre-process target.
    dev: usize,
    /// The device slot the write-back reads, leased until it completes.
    pin: Option<SlotIdx>,
}

/// One device's jobs and GPU tasks: see § GPU tasks.
#[derive(Debug, Default)]
struct Device {
    /// Live jobs bound to the device.
    jobs: usize,
    /// GPU tasks issued and not done.
    issued: usize,
    ready: Vec<ReadyCompare>,
    /// Staging indices in use, one bit each.
    staging: u32,
    /// Items waiting for a staging index, with their device slots.
    staging_queue: VecDeque<(ItemId, SlotIdx)>,
}

/// One node's cache levels, fill pipelines, jobs and GPU tasks: see the
/// module docs.
#[derive(Debug)]
pub struct NodeCore {
    dev_cache: Vec<SlotCache<Cont>>,
    host_cache: SlotCache<Cont>,
    /// `dev_fills[dev * device_slots + dslot]`, flat: one hop from the
    /// core to a row.
    dev_fills: Vec<DevFill>,
    /// `host_fills[hslot]`: `Some` exactly while `hslot` is in WRITE state.
    host_fills: Vec<Option<HostFill>>,
    /// Item ids run over `0..items`.
    items: u64,
    jobs: Vec<Option<Job>>,
    /// Retired slots of `jobs`.
    free_jobs: Vec<u32>,
    job_cap: usize,
    devs: Vec<Device>,
    /// Continuations woken by the current input, run by [`NodeCore::drain`]
    /// — iteratively: recursing would overflow the stack on long waiter
    /// chains (wake → release → wake → …).
    pending: VecDeque<Cont>,
    directory: Directory,
    /// Failed loads per item (sparse).
    failures: FxHashMap<ItemId, u32>,
    /// Items given up on, with the last cause (sparse).
    dead: FxHashMap<ItemId, String>,
    preprocess: bool,
    distributed: bool,
    loads: u64,
    remote_fetches: u64,
}

impl NodeCore {
    /// Node `node` of `scenario` over `items` items, with `device_slots`
    /// slots on each of its devices and `host_slots` host slots. Without
    /// `preprocess`, parse produces the item itself.
    pub fn new(
        scenario: &Scenario,
        node: usize,
        items: usize,
        device_slots: usize,
        host_slots: usize,
        preprocess: bool,
    ) -> Self {
        let spec = &scenario.nodes[node];
        let devices = spec.gpus.len();
        Self {
            dev_cache: (0..devices)
                .map(|_| SlotCache::with_item_space(device_slots, items))
                .collect(),
            host_cache: SlotCache::with_item_space(host_slots, items),
            dev_fills: vec![DevFill::default(); devices * device_slots],
            host_fills: vec![None; host_slots],
            items: items as u64,
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            job_cap: spec.job_cap(scenario.job_limit, device_slots),
            devs: (0..devices).map(|_| Device::default()).collect(),
            pending: VecDeque::new(),
            directory: Directory::new(node, scenario.nodes.len(), scenario.hops),
            failures: FxHashMap::default(),
            dead: FxHashMap::default(),
            preprocess,
            distributed: scenario.distributed_cache && scenario.nodes.len() > 1,
            loads: 0,
            remote_fetches: 0,
        }
    }

    /// The node's in-flight job cap: [`NodeSpec::job_cap`](crate::NodeSpec::job_cap)
    /// over the slots the core was built with.
    pub fn job_cap(&self) -> usize {
        self.job_cap
    }

    /// Whether the node runs fewer jobs than its cap.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.jobs.len() - self.free_jobs.len() < self.job_cap
    }

    /// Most compares one GPU task holds: half the job cap.
    pub fn task_cap(&self) -> usize {
        (self.job_cap / 2).max(1)
    }

    /// Live jobs bound to device `dev`.
    #[inline]
    pub fn jobs_on(&self, dev: usize) -> usize {
        self.devs[dev].jobs
    }

    /// Adds this node's statistics to `report`: its loads and remote
    /// fetches, its devices' and host's cache counters and its directory's
    /// lookup counters. Both engines build their [`RunReport`] through
    /// this one roll-up, node by node.
    pub fn fold_into(&self, report: &mut RunReport) {
        report.loads += self.loads;
        report.remote_fetches += self.remote_fetches;
        for cache in &self.dev_cache {
            report.device_cache.merge(&cache.stats());
        }
        report.host_cache.merge(&self.host_cache.stats());
        report.directory.merge(self.directory.stats());
    }

    // ---- inputs ----------------------------------------------------------

    /// A pair submitted to device `dev` becomes a job.
    pub fn submit(&mut self, pair: Pair, dev: usize, io: &mut impl NodeIo) {
        self.devs[dev].jobs += 1;
        let job = Job {
            pair,
            dev,
            leases: [None; 2],
            stalled: None,
            comparing: false,
        };
        let id = match self.free_jobs.pop() {
            Some(slot) => {
                self.jobs[slot as usize] = Some(job);
                JobId::from(slot)
            }
            None => {
                self.jobs.push(Some(job));
                (self.jobs.len() - 1) as JobId
            }
        };
        self.try_acquire(id, io);
    }

    /// A job's compare finished: its device slots are free again.
    #[inline]
    pub fn compare_done(&mut self, job: JobId) {
        self.release_leases(job);
    }

    /// Ends a compared job; returns its pair and device.
    #[inline]
    pub fn retire(&mut self, job: JobId) -> (Pair, usize) {
        let done = self.jobs[job as usize].take().expect("retired job exists");
        self.free_jobs.push(job as u32);
        self.devs[done.dev].jobs -= 1;
        (done.pair, done.dev)
    }

    /// A compare task on device `dev` ended.
    pub fn task_done(&mut self, dev: usize, io: &mut impl NodeIo) {
        self.devs[dev].issued -= 1;
        if self.devs[dev].issued == 0 {
            self.launch(dev, io);
        }
    }

    /// Sends every device's ready compares. Executors call it after each
    /// drain of their event queue.
    pub fn flush(&mut self, io: &mut impl NodeIo) {
        for dev in 0..self.devs.len() {
            self.launch(dev, io);
        }
    }

    /// `item`'s file was read.
    pub fn read_done<I: NodeIo>(
        &mut self,
        item: ItemId,
        result: Result<I::Raw, String>,
        io: &mut I,
    ) {
        match result {
            Ok(raw) => {
                if let Some((hslot, _)) = self.host_fill(item) {
                    io.parse(item, hslot, raw);
                }
            }
            Err(e) => self.item_failure(item, format!("storage read failed: {e}"), io),
        }
    }

    /// `item` was parsed.
    pub fn parse_done(&mut self, item: ItemId, result: Result<(), String>, io: &mut impl NodeIo) {
        if let Err(e) = result {
            return self.item_failure(item, format!("parse failed: {e}"), io);
        }
        let Some((_, fill)) = self.host_fill(item) else {
            return;
        };
        if self.preprocess {
            let dev = fill.dev;
            // The origin device fill waits on this load: only the load's
            // own pre-process or death ends it.
            if let Some(dslot) = self.dev_cache[dev].filling(item) {
                self.stage(dev, item, dslot, io);
            }
        } else {
            self.loads += 1;
            self.publish_host(item, io);
        }
    }

    /// `item` was pre-processed into device `dev`'s slot through staging
    /// index `staging`, which is free again either way.
    pub fn preprocess_done(
        &mut self,
        dev: usize,
        staging: usize,
        item: ItemId,
        result: Result<(), String>,
        io: &mut impl NodeIo,
    ) {
        self.task_done(dev, io);
        self.devs[dev].staging &= !(1 << staging);
        if let Some((next, dslot)) = self.devs[dev].staging_queue.pop_front() {
            self.stage(dev, next, dslot, io);
        }
        let Some((hslot, fill)) = self.host_fill(item) else {
            return;
        };
        if let Err(e) = result {
            return self.item_failure(item, format!("preprocess failed: {e}"), io);
        }
        self.loads += 1;
        // The item is ready on the device: publish the device slot first
        // (jobs can start comparing), then write it back to the host slot
        // (Fig 4's "copy device slot to host slot"). The write-back reads
        // the slot, so it keeps a read lease on it — the pin — until
        // `write_back_done`; unpinned, an eviction could refill it
        // mid-copy.
        let Some(dslot) = self.complete_dev_fill(dev, item, true) else {
            return;
        };
        self.host_fills[hslot] = Some(HostFill {
            pin: Some(dslot),
            ..fill
        });
        io.write_back(dev, item, dslot, hslot);
    }

    /// `item`'s write-back into its host slot finished.
    pub fn write_back_done(
        &mut self,
        item: ItemId,
        result: Result<(), String>,
        io: &mut impl NodeIo,
    ) {
        let Some((hslot, fill)) = self.host_fill(item) else {
            return;
        };
        let dev = fill.dev;
        let dslot = fill.pin.expect("a write-back pins its device slot");
        match result {
            Ok(()) => {
                if let Some(cont) = self.dev_cache[dev].release(dslot) {
                    self.pending.push_back(cont);
                }
                self.publish_host(item, io);
            }
            Err(e) => {
                if self.give_up(item, format!("write-back failed: {e}")) {
                    self.kill(item);
                } else {
                    // The item is still in the pinned slot: copy again.
                    io.write_back(dev, item, dslot, hslot);
                }
            }
        }
    }

    /// The fill copy of `item` into device `dev` finished.
    #[inline]
    pub fn fill_copy_done(&mut self, dev: usize, item: ItemId, result: Result<(), String>) {
        if let Some((_, row)) = self.dev_fill(dev, item) {
            if let Some(hslot) = self.dev_fills[row].h2d_lease.take() {
                if let Some(cont) = self.host_cache.release(hslot) {
                    self.pending.push_back(cont);
                }
            }
        }
        match result {
            Ok(()) => {
                self.complete_dev_fill(dev, item, false);
            }
            Err(e) => {
                // Retry the copy, or abort the fill if the item is dead.
                self.give_up(item, format!("H2D copy failed: {e}"));
                self.pending.push_back(Cont::DevFill { dev, item });
            }
        }
    }

    /// A message from peer `from`.
    pub fn on_peer<I: NodeIo>(&mut self, from: usize, msg: PeerMsg<I::Data>, io: &mut I) {
        let item = msg.item();
        // A peer naming an id outside this run's items is dropped before
        // it can touch the directory or a cache's item map.
        if item >= self.items {
            return;
        }
        match msg {
            PeerMsg::Dir(dir_msg) => {
                let host_cache = &self.host_cache;
                let (outgoing, resolution) = self
                    .directory
                    .handle(dir_msg, |i| host_cache.contains_ready(i));
                for (to, m) in outgoing {
                    io.send(to, PeerMsg::Dir(m));
                }
                // Only `Found`/`NotFound` resolve, and both name `item`.
                let filling = self.host_fill(item).is_some();
                match resolution {
                    Resolution::InFlight => {}
                    Resolution::Found { holder, .. } => {
                        io.note(PerfKind::ProbeHit, item);
                        if filling {
                            io.send(holder, PeerMsg::Fetch { item });
                        }
                    }
                    Resolution::LoadLocally => {
                        io.note(PerfKind::ProbeMiss, item);
                        if filling {
                            io.read(item);
                        }
                    }
                }
            }
            PeerMsg::Fetch { item } => {
                // Serve from the host cache if (still) resident; the lease
                // pins the slot while the executor copies the bytes out. A
                // miss replies `None`: the protocol is best effort and the
                // requester falls back to loading locally.
                let hslot = self.host_cache.try_read(item);
                io.serve_fetch(from, item, hslot);
                if let Some(cont) = hslot.and_then(|h| self.host_cache.release(h)) {
                    self.pending.push_back(cont);
                }
            }
            PeerMsg::FetchReply { item, data } => {
                let Some((hslot, _)) = self.host_fill(item) else {
                    return;
                };
                match data {
                    Some(data) => {
                        io.fetched(hslot, data);
                        self.remote_fetches += 1;
                        self.publish_host(item, io);
                    }
                    None => io.read(item),
                }
            }
        }
    }

    /// Whether no woken continuation waits for [`NodeCore::drain`] and no
    /// ready compare for [`NodeCore::flush`]: an executor can skip setting
    /// up a drain and flush that would do nothing.
    #[inline]
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.devs.iter().all(|d| d.ready.is_empty())
    }

    /// Runs the continuations the last inputs woke. Executors call it after
    /// each event they handle.
    pub fn drain(&mut self, io: &mut impl NodeIo) {
        while let Some(cont) = self.pending.pop_front() {
            match cont {
                Cont::Job(id) => self.try_acquire(id, io),
                Cont::DevFill { dev, item } => self.continue_dev_fill(dev, item, io),
            }
        }
    }

    // ---- jobs ------------------------------------------------------------

    fn try_acquire(&mut self, id: JobId, io: &mut impl NodeIo) {
        let Some(job) = &self.jobs[id as usize] else {
            return;
        };
        if job.comparing {
            return;
        }
        let (pair, dev, stalled) = (job.pair, job.dev, job.stalled);
        if !self.dead.is_empty() {
            for item in [pair.left, pair.right] {
                if let Some(cause) = self.dead.get(&item) {
                    let cause = format!("item {item}: {cause}");
                    self.fail_job(id, cause, io);
                    return;
                }
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
            if self.job_mut(id).leases[which].is_some() {
                continue;
            }
            match self.dev_cache[dev].get(item, || Cont::Job(id)) {
                Lookup::Hit(slot) => {
                    self.job_mut(id).leases[which] = Some(slot);
                    io.note(PerfKind::DevHit, item);
                }
                Lookup::Pending => return,
                Lookup::MustLoad(slot) => {
                    io.note(PerfKind::DevMiss, item);
                    let row = self.dev_row(dev, slot);
                    let fill = &mut self.dev_fills[row];
                    debug_assert!(fill.waiters.is_empty() && fill.h2d_lease.is_none());
                    fill.waiters.push(Cont::Job(id));
                    self.continue_dev_fill(dev, item, io);
                    return;
                }
                Lookup::Busy => {
                    // Deadlock avoidance: never hold-and-wait on capacity.
                    self.job_mut(id).stalled = Some(item);
                    self.release_leases(id);
                    return;
                }
            }
        }
        let job = self.job_mut(id);
        job.stalled = None;
        job.comparing = true;
        let slots = job.leases.map(|s| s.expect("both leases held"));
        self.devs[dev].ready.push(ReadyCompare { id, pair, slots });
        if self.devs[dev].issued == 0 {
            self.launch(dev, io);
        }
    }

    // ---- GPU tasks -------------------------------------------------------

    /// Sends device `dev`'s ready compares, [`NodeCore::task_cap`] a task.
    fn launch(&mut self, dev: usize, io: &mut impl NodeIo) {
        let (cap, d) = (self.task_cap(), &mut self.devs[dev]);
        for batch in d.ready.chunks(cap) {
            io.compare_batch(dev, batch);
            d.issued += 1;
        }
        d.ready.clear();
    }

    /// Uploads `item`'s parsed bytes through a free staging index, or
    /// queues the item for the next one.
    fn stage(&mut self, dev: usize, item: ItemId, dslot: SlotIdx, io: &mut impl NodeIo) {
        let d = &mut self.devs[dev];
        let staging = d.staging.trailing_ones() as usize;
        if staging == STAGING_BUFFERS {
            return d.staging_queue.push_back((item, dslot));
        }
        d.staging |= 1 << staging;
        d.issued += 1;
        io.preprocess(dev, item, dslot, staging);
    }

    /// Index of device `dev`'s fill row for device slot `dslot`.
    #[inline]
    fn dev_row(&self, dev: usize, dslot: SlotIdx) -> usize {
        dev * self.dev_cache[dev].capacity() + dslot
    }

    /// Device `dev`'s in-flight fill of `item`: its device slot and row.
    #[inline]
    fn dev_fill(&self, dev: usize, item: ItemId) -> Option<(SlotIdx, usize)> {
        let dslot = self.dev_cache[dev].filling(item)?;
        Some((dslot, self.dev_row(dev, dslot)))
    }

    /// The in-flight host fill of `item`: its host slot and row.
    #[inline]
    fn host_fill(&self, item: ItemId) -> Option<(SlotIdx, HostFill)> {
        let hslot = self.host_cache.filling(item)?;
        self.host_fills[hslot].map(|fill| (hslot, fill))
    }

    #[inline]
    fn job_mut(&mut self, id: JobId) -> &mut Job {
        self.jobs[id as usize].as_mut().expect("job exists")
    }

    #[inline]
    fn release_leases(&mut self, id: JobId) {
        let Some(job) = &mut self.jobs[id as usize] else {
            return;
        };
        let dev = job.dev;
        for slot in std::mem::take(&mut job.leases).into_iter().flatten() {
            if let Some(cont) = self.dev_cache[dev].release(slot) {
                self.pending.push_back(cont);
            }
        }
    }

    /// Fails a job that never reached its compare.
    fn fail_job(&mut self, id: JobId, cause: String, io: &mut impl NodeIo) {
        self.release_leases(id);
        let (pair, _) = self.retire(id);
        io.fail_pair(pair, cause);
    }

    // ---- device fill -----------------------------------------------------

    fn continue_dev_fill(&mut self, dev: usize, item: ItemId, io: &mut impl NodeIo) {
        let Some((dslot, row)) = self.dev_fill(dev, item) else {
            return; // already completed or aborted
        };
        // A fill copy is already filling this slot: a second wake (e.g. a
        // parked token plus the origin-continuation of `publish_host`)
        // must not take a second host lease.
        if self.dev_fills[row].h2d_lease.is_some() {
            return;
        }
        if self.is_dead(item) {
            self.abort_dev_fill(dev, item);
            return;
        }
        match self.host_cache.get(item, || Cont::DevFill { dev, item }) {
            Lookup::Hit(hslot) => {
                self.dev_fills[row].h2d_lease = Some(hslot);
                io.note(PerfKind::HostHit, item);
                io.fill_copy(dev, item, hslot, dslot);
            }
            Lookup::Pending | Lookup::Busy => {}
            Lookup::MustLoad(hslot) => {
                io.note(PerfKind::HostMiss, item);
                debug_assert!(self.host_fills[hslot].is_none());
                self.host_fills[hslot] = Some(HostFill { dev, pin: None });
                if self.distributed {
                    let (to, msg) = self.directory.begin_lookup(item);
                    io.send(to, PeerMsg::Dir(msg));
                    io.note(PerfKind::Probe, item);
                } else {
                    io.read(item);
                }
            }
        }
    }

    /// Publishes a filled device slot and queues its waiters; returns the
    /// slot. With `pin`, the core keeps a read lease on the slot (no hit is
    /// counted) for the caller to release.
    #[inline]
    fn complete_dev_fill(&mut self, dev: usize, item: ItemId, pin: bool) -> Option<SlotIdx> {
        let (dslot, row) = self.dev_fill(dev, item)?;
        let waiters = std::mem::take(&mut self.dev_fills[row].waiters);
        let cache = &mut self.dev_cache[dev];
        self.pending.extend(if pin {
            cache.publish_and_read(dslot)
        } else {
            cache.publish(dslot)
        });
        self.pending.extend(waiters);
        // An unpinned published slot is evictable until a reader takes it:
        // fresh capacity, so one parked capacity waiter gets a retry. A
        // pinned slot is not evictable, but a waiter is popped all the
        // same whenever some other slot is free or evictable.
        if let Some(w) = cache.pop_capacity_waiter() {
            self.pending.push_back(w);
        }
        Some(dslot)
    }

    #[inline]
    fn abort_dev_fill(&mut self, dev: usize, item: ItemId) {
        let Some((dslot, row)) = self.dev_fill(dev, item) else {
            return;
        };
        let waiters = std::mem::take(&mut self.dev_fills[row].waiters);
        self.pending.extend(self.dev_cache[dev].abort(dslot));
        self.pending.extend(waiters);
    }

    // ---- host fill -------------------------------------------------------

    fn publish_host(&mut self, item: ItemId, io: &mut impl NodeIo) {
        let Some((hslot, fill)) = self.host_fill(item) else {
            return;
        };
        self.host_fills[hslot] = None;
        let waiters = self.host_cache.publish(hslot);
        self.pending.extend(waiters);
        // Fresh capacity (see `complete_dev_fill`): retry one parked waiter.
        if let Some(w) = self.host_cache.pop_capacity_waiter() {
            self.pending.push_back(w);
        }
        // The originating device fill continues if it still needs the host
        // copy (no-pre-process and remote-fetch paths).
        self.continue_dev_fill(fill.dev, item, io);
    }

    /// Counts a failed load stage of `item`: the load restarts from storage
    /// until the item is given up on, then its fills abort.
    fn item_failure(&mut self, item: ItemId, cause: String, io: &mut impl NodeIo) {
        if self.give_up(item, cause) {
            self.kill(item);
        } else if self.host_fill(item).is_some() {
            io.read(item);
        }
    }

    /// Counts a failure of `item`; returns whether it was the
    /// [`MAX_ITEM_FAILURES`]th, which gives the item up with `cause`.
    fn give_up(&mut self, item: ItemId, cause: String) -> bool {
        let failures = self.failures.entry(item).or_insert(0);
        *failures += 1;
        if *failures < MAX_ITEM_FAILURES {
            return false;
        }
        self.dead.insert(item, cause);
        true
    }

    #[inline]
    fn is_dead(&self, item: ItemId) -> bool {
        !self.dead.is_empty() && self.dead.contains_key(&item)
    }

    /// Aborts a dead item's host fill and the device fill that started it;
    /// the woken waiters see the item dead and abort or fail in turn.
    fn kill(&mut self, item: ItemId) {
        let Some((hslot, fill)) = self.host_fill(item) else {
            return;
        };
        self.host_fills[hslot] = None;
        let dev = fill.dev;
        if let Some(dslot) = fill.pin {
            if let Some(cont) = self.dev_cache[dev].release(dslot) {
                self.pending.push_back(cont);
            }
        }
        self.pending.extend(self.host_cache.abort(hslot));
        self.abort_dev_fill(dev, item);
    }

    // ---- checks ----------------------------------------------------------

    /// Lease accounting, checked by both executors after every drain in
    /// debug builds: each device slot's read leases are its job leases plus
    /// its write-back pin, each host slot's are its in-flight fill copies,
    /// and both cache levels pass their own invariants. Each device counts
    /// its live jobs, holds ready compares only behind an issued task, and
    /// queues items only while every staging index is in use.
    pub fn check(&self) {
        // Every slot's readers must equal the leases counted for it.
        let expect = |cache: &SlotCache<Cont>, leases: Vec<u32>, what: String| {
            for (slot, &want) in leases.iter().enumerate() {
                let readers = cache.readers(slot);
                assert_eq!(readers, want, "{what} slot {slot}: read leases vs owners");
            }
            if let Err(e) = cache.check_invariants() {
                panic!("{what} cache: {e}");
            }
        };
        for (dev, cache) in self.dev_cache.iter().enumerate() {
            let mut leases = vec![0u32; cache.capacity()];
            let (d, jobs) = (&self.devs[dev], self.jobs.iter().flatten());
            let jobs = jobs.filter(|j| j.dev == dev);
            let full = d.staging.trailing_ones() as usize == STAGING_BUFFERS;
            let ok = d.jobs == jobs.clone().count() && (d.ready.is_empty() || d.issued > 0);
            let ok = ok && (full || d.staging_queue.is_empty());
            assert!(ok, "device {dev}: {d:?}");
            for slot in jobs.flat_map(|j| j.leases.iter().flatten()) {
                leases[*slot] += 1;
            }
            let fills = self.host_fills.iter().flatten().filter(|f| f.dev == dev);
            for pin in fills.filter_map(|f| f.pin) {
                leases[pin] += 1;
            }
            expect(cache, leases, format!("device {dev}"));
        }
        let mut leases = vec![0u32; self.host_cache.capacity()];
        for hslot in self.dev_fills.iter().filter_map(|f| f.h2d_lease) {
            leases[hslot] += 1;
        }
        expect(&self.host_cache, leases, "host".into());
    }

    /// A stalled run's view of this node: in-flight fills, both cache
    /// levels and the live jobs.
    pub fn describe(&self) -> String {
        let cache = |c: &SlotCache<Cont>| {
            let (waiters, evictable) = (c.parked_capacity_waiters(), c.evictable());
            let (occupied, slots) = (c.occupied(), c.capacity());
            format!("cap_waiters={waiters} evictable={evictable} occ={occupied}/{slots}")
        };
        let host_fills = self.host_fills.iter().flatten().count();
        // Occupied slots not in READ state are in WRITE state: filling.
        let dev_fills: usize = self
            .dev_cache
            .iter()
            .map(|c| c.occupied() - c.resident_items().len())
            .sum();
        let mut out = format!("hostfills={host_fills} devfills={dev_fills}");
        out += &format!(" host({})", cache(&self.host_cache));
        for (dev, c) in self.dev_cache.iter().enumerate() {
            out += &format!(
                "\n   dev {dev}: {} resident={:?}",
                cache(c),
                c.resident_items()
            );
        }
        for (id, job) in self.jobs.iter().enumerate() {
            if let Some(job) = job {
                out += &format!("\n   job {id}: {job:?}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket_cache::DirectoryMsg;

    const ITEMS: u64 = 8;

    /// A side effect the core asked for.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Call {
        Read(ItemId),
        Parse(ItemId),
        Preprocess {
            item: ItemId,
            dslot: SlotIdx,
            staging: usize,
        },
        WriteBack {
            item: ItemId,
            dslot: SlotIdx,
        },
        FillCopy {
            item: ItemId,
            dslot: SlotIdx,
        },
        /// One GPU task: its jobs and their pairs.
        Compares(Vec<(JobId, Pair)>),
        Send(usize, PeerMsg<()>),
        Serve(usize, ItemId, Option<SlotIdx>),
        Fetched(SlotIdx),
        Fail(Pair, String),
        Note(PerfKind, ItemId),
    }

    /// The recording fake executor: every call is logged, nothing runs.
    #[derive(Default)]
    struct Rec(Vec<Call>);

    impl NodeIo for Rec {
        type Raw = ();
        type Data = ();

        fn read(&mut self, item: ItemId) {
            self.0.push(Call::Read(item));
        }
        fn parse(&mut self, item: ItemId, _: SlotIdx, (): ()) {
            self.0.push(Call::Parse(item));
        }
        fn preprocess(&mut self, _: usize, item: ItemId, dslot: SlotIdx, staging: usize) {
            self.0.push(Call::Preprocess {
                item,
                dslot,
                staging,
            });
        }
        fn write_back(&mut self, _: usize, item: ItemId, dslot: SlotIdx, _: SlotIdx) {
            self.0.push(Call::WriteBack { item, dslot });
        }
        fn fill_copy(&mut self, _: usize, item: ItemId, _: SlotIdx, dslot: SlotIdx) {
            self.0.push(Call::FillCopy { item, dslot });
        }
        fn compare_batch(&mut self, _: usize, batch: &[ReadyCompare]) {
            let jobs = batch.iter().map(|c| (c.id, c.pair)).collect();
            self.0.push(Call::Compares(jobs));
        }
        fn send(&mut self, to: usize, msg: PeerMsg<()>) {
            self.0.push(Call::Send(to, msg));
        }
        fn serve_fetch(&mut self, to: usize, item: ItemId, hslot: Option<SlotIdx>) {
            self.0.push(Call::Serve(to, item, hslot));
        }
        fn fetched(&mut self, hslot: SlotIdx, (): ()) {
            self.0.push(Call::Fetched(hslot));
        }
        fn fail_pair(&mut self, pair: Pair, cause: String) {
            self.0.push(Call::Fail(pair, cause));
        }
        fn note(&mut self, kind: PerfKind, item: ItemId) {
            self.0.push(Call::Note(kind, item));
        }
    }

    /// Node 0 of `nodes` (distributed cache on), one device with
    /// `device_slots` slots, eight host slots, a pre-process stage.
    fn core(nodes: usize, device_slots: usize) -> NodeCore {
        let scenario = Scenario::builder()
            .items(ITEMS)
            .uniform_cluster(nodes, 1, device_slots, 8)
            .build();
        NodeCore::new(&scenario, 0, ITEMS as usize, device_slots, 8, true)
    }

    /// Feeds one input, drains, and checks the lease accounting.
    fn step(core: &mut NodeCore, io: &mut Rec, input: impl FnOnce(&mut NodeCore, &mut Rec)) {
        input(core, io);
        core.drain(io);
        core.check();
    }

    /// Ends the compare task of `jobs` on device 0: the task, then each
    /// job, which retires with its pair and device.
    fn finish_task(core: &mut NodeCore, io: &mut Rec, jobs: &[(JobId, Pair)]) {
        step(core, io, |c, io| {
            c.task_done(0, io);
            for &(job, pair) in jobs {
                c.compare_done(job);
                assert_eq!(c.retire(job), (pair, 0));
            }
        });
    }

    /// The device slot and staging index of `item`'s last pre-process.
    fn preprocessed(io: &Rec, item: ItemId) -> Option<(SlotIdx, usize)> {
        io.0.iter().rev().find_map(|call| match *call {
            Call::Preprocess {
                item: i,
                dslot,
                staging,
            } if i == item => Some((dslot, staging)),
            _ => None,
        })
    }

    /// Completes the read, parse and pre-process of `item`, whose load must
    /// be in flight; returns the device slot it was pre-processed into. Its
    /// write-back stays in flight.
    fn load(core: &mut NodeCore, io: &mut Rec, item: ItemId) -> SlotIdx {
        step(core, io, |c, io| c.read_done(item, Ok(()), io));
        step(core, io, |c, io| c.parse_done(item, Ok(()), io));
        let (dslot, staging) = preprocessed(io, item).expect("the parse started the pre-process");
        step(core, io, |c, io| {
            c.preprocess_done(0, staging, item, Ok(()), io)
        });
        assert!(io.0.contains(&Call::WriteBack { item, dslot }));
        dslot
    }

    /// While a write-back is in flight, its device slot is pinned: a miss
    /// evicts another slot or stalls. Once the copy completes, the slot is
    /// evictable again. Without the pin the first miss below would evict
    /// the slot item 0's write-back is still reading.
    #[test]
    fn write_back_pins_its_device_slot_until_it_completes() {
        let (mut core, mut io) = (core(1, 2), Rec::default());
        step(&mut core, &mut io, |c, io| c.submit(Pair::new(0, 1), 0, io));
        let s0 = load(&mut core, &mut io, 0);
        let s1 = load(&mut core, &mut io, 1);
        step(&mut core, &mut io, |c, io| c.write_back_done(1, Ok(()), io));
        let job = (0, Pair::new(0, 1));
        assert!(io.0.contains(&Call::Compares(vec![job])));
        finish_task(&mut core, &mut io, &[job]);

        // Item 0's write-back still reads s0; s1 is the only evictable
        // slot.
        step(&mut core, &mut io, |c, io| c.submit(Pair::new(2, 3), 0, io));
        assert_eq!(load(&mut core, &mut io, 2), s1);
        // Item 3 misses with both slots pinned: the job stalls, and item
        // 0's write-back completing frees s0 for it.
        assert!(!io.0.contains(&Call::Read(3)));
        step(&mut core, &mut io, |c, io| c.write_back_done(0, Ok(()), io));
        assert_eq!(load(&mut core, &mut io, 3), s0);
    }

    /// Rows are indexed by item id: a message naming an id outside the
    /// run's items changes nothing and starts nothing.
    #[test]
    fn peer_messages_naming_unknown_items_are_dropped() {
        let (mut core, mut io) = (core(2, 4), Rec::default());
        let before = format!("{core:?}");
        let item = ITEMS;
        let msgs = [
            PeerMsg::Fetch { item },
            PeerMsg::FetchReply {
                item,
                data: Some(()),
            },
            PeerMsg::FetchReply { item, data: None },
            PeerMsg::Dir(DirectoryMsg::Request { item, requester: 1 }),
            PeerMsg::Dir(DirectoryMsg::Probe {
                item,
                requester: 1,
                rest: Default::default(),
                hop: 1,
            }),
            PeerMsg::Dir(DirectoryMsg::Found {
                item,
                holder: 1,
                hop: 1,
            }),
            PeerMsg::Dir(DirectoryMsg::NotFound { item }),
        ];
        for msg in msgs {
            step(&mut core, &mut io, |c, io| c.on_peer(1, msg, io));
            assert_eq!(format!("{core:?}"), before);
        }
        assert_eq!(io.0, [], "no side effect was started");
    }

    /// A failed read restarts the load until the item has failed
    /// `MAX_ITEM_FAILURES` times; then every pair that needs it fails with
    /// the last cause, at once for pairs submitted later.
    #[test]
    fn an_item_given_up_on_fails_every_pair_that_needs_it() {
        let (mut core, mut io) = (core(1, 4), Rec::default());
        step(&mut core, &mut io, |c, io| c.submit(Pair::new(0, 1), 0, io));
        for _ in 1..MAX_ITEM_FAILURES {
            io.0.clear();
            step(&mut core, &mut io, |c, io| {
                c.read_done(0, Err("gone".into()), io)
            });
            assert_eq!(io.0, [Call::Read(0)]);
        }
        io.0.clear();
        step(&mut core, &mut io, |c, io| {
            c.read_done(0, Err("gone".into()), io)
        });
        let cause = "item 0: storage read failed: gone".to_string();
        assert_eq!(io.0, [Call::Fail(Pair::new(0, 1), cause.clone())]);
        io.0.clear();
        step(&mut core, &mut io, |c, io| c.submit(Pair::new(0, 2), 0, io));
        assert_eq!(io.0, [Call::Fail(Pair::new(0, 2), cause)]);
    }

    /// A fill's row belongs to its slot only while the slot is in WRITE
    /// state. Item 0 fills device slot `s`, completes and is evicted; item
    /// 2 then fills `s`. A stale continuation for item 0 finds no fill in
    /// flight: it starts nothing and leaves item 2's row and every lease
    /// as they were.
    #[test]
    fn a_stale_fill_continuation_ignores_the_fill_that_reused_its_slot() {
        let (mut core, mut io) = (core(1, 2), Rec::default());
        step(&mut core, &mut io, |c, io| c.submit(Pair::new(0, 1), 0, io));
        let s = load(&mut core, &mut io, 0);
        load(&mut core, &mut io, 1);
        for item in [0, 1] {
            step(&mut core, &mut io, |c, io| {
                c.write_back_done(item, Ok(()), io)
            });
        }
        finish_task(&mut core, &mut io, &[(0, Pair::new(0, 1))]);

        // Item 1 hits; item 2 misses and evicts item 0, the LRU slot.
        step(&mut core, &mut io, |c, io| c.submit(Pair::new(2, 1), 0, io));
        assert_eq!(core.dev_cache[0].filling(0), None);
        assert_eq!(core.dev_cache[0].filling(2), Some(s));
        let before = format!("{core:?}");
        let calls = io.0.len();
        step(&mut core, &mut io, |c, _| {
            c.pending.push_back(Cont::DevFill { dev: 0, item: 0 });
        });
        assert_eq!(io.0[calls..], [], "the stale continuation started nothing");
        assert_eq!(format!("{core:?}"), before);

        // Item 2's fill goes on undisturbed and its job, which reuses job
        // id 0, compares.
        assert_eq!(load(&mut core, &mut io, 2), s);
        let task = Call::Compares(vec![(0, Pair::new(2, 1))]);
        assert!(io.0[calls..].contains(&task));
    }

    /// The jobs of every GPU task sent so far, in order.
    fn tasks(io: &Rec) -> Vec<Vec<JobId>> {
        (io.0.iter())
            .filter_map(|call| match call {
                Call::Compares(jobs) => Some(jobs.iter().map(|&(job, _)| job).collect()),
                _ => None,
            })
            .collect()
    }

    /// Submits `n` jobs of pair `(0, 1)`, whose items are resident.
    fn submit_resident(core: &mut NodeCore, io: &mut Rec, n: usize) {
        for _ in 0..n {
            step(core, io, |c, io| c.submit(Pair::new(0, 1), 0, io));
        }
    }

    /// A compare on a device with nothing issued leaves at once, as a task
    /// of one. Compares readied while that task runs wait; when it is done
    /// and leaves the device idle, they leave together.
    #[test]
    fn a_compare_on_an_idle_device_leaves_at_once() {
        let (mut core, mut io) = (core(1, 8), Rec::default());
        step(&mut core, &mut io, |c, io| c.submit(Pair::new(0, 1), 0, io));
        load(&mut core, &mut io, 0);
        load(&mut core, &mut io, 1);
        assert_eq!(tasks(&io), [vec![0]]);
        submit_resident(&mut core, &mut io, 2);
        assert_eq!(tasks(&io), [vec![0]], "the device has a task issued");
        finish_task(&mut core, &mut io, &[(0, Pair::new(0, 1))]);
        assert_eq!(tasks(&io), [vec![0], vec![1, 2]]);
    }

    /// Compares readied while a task is issued leave together at `flush`,
    /// in tasks of at most half the job cap: 8 slots on one device cap the
    /// node at 4 jobs, so tasks hold 2.
    #[test]
    fn ready_compares_leave_at_flush_split_at_half_the_job_cap() {
        let (mut core, mut io) = (core(1, 8), Rec::default());
        assert_eq!((core.job_cap, core.task_cap()), (4, 2));
        step(&mut core, &mut io, |c, io| c.submit(Pair::new(0, 1), 0, io));
        load(&mut core, &mut io, 0);
        load(&mut core, &mut io, 1);
        submit_resident(&mut core, &mut io, 5);
        assert_eq!(tasks(&io), [vec![0]]);
        assert!(!core.is_drained(), "five compares wait for the flush");
        core.flush(&mut io);
        assert_eq!(tasks(&io), [vec![0], vec![1, 2], vec![3, 4], vec![5]]);
        assert!(core.is_drained());
    }

    /// Each device has `STAGING_BUFFERS` staging indices. A fifth parsed
    /// item waits for one, and a pre-process hands its index back when it
    /// fails as when it succeeds.
    #[test]
    fn a_fifth_preprocess_waits_for_a_staging_index() {
        let (mut core, mut io) = (core(1, 8), Rec::default());
        for item in 0..5 {
            step(&mut core, &mut io, |c, io| {
                c.submit(Pair::new(item, 7), 0, io)
            });
            step(&mut core, &mut io, |c, io| c.read_done(item, Ok(()), io));
            step(&mut core, &mut io, |c, io| c.parse_done(item, Ok(()), io));
        }
        let staged = |io: &Rec, item| preprocessed(io, item).map(|(_, staging)| staging);
        let indices: Vec<_> = (0..4).map(|item| staged(&io, item)).collect();
        assert_eq!(indices, [Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(staged(&io, 4), None, "item 4 waits for an index");

        // Item 2's pre-process fails: item 4 takes its index, and item 2
        // loads again and waits in turn.
        step(&mut core, &mut io, |c, io| {
            c.preprocess_done(0, 2, 2, Err("boom".into()), io)
        });
        assert_eq!(staged(&io, 4), Some(2));
        assert_eq!(io.0.iter().filter(|&c| *c == Call::Read(2)).count(), 2);
        step(&mut core, &mut io, |c, io| c.read_done(2, Ok(()), io));
        step(&mut core, &mut io, |c, io| c.parse_done(2, Ok(()), io));
        let uploads = |io: &Rec, item| {
            let staged = |c: &&Call| matches!(c, Call::Preprocess { item: i, .. } if *i == item);
            io.0.iter().filter(staged).count()
        };
        assert_eq!(uploads(&io, 2), 1, "item 2 waits for an index");

        // Item 0's pre-process succeeds: item 2 takes its index.
        step(&mut core, &mut io, |c, io| {
            c.preprocess_done(0, 0, 0, Ok(()), io)
        });
        assert_eq!(staged(&io, 2), Some(0));
    }

    /// Fill rows are per slot: a node over 2^20 items with 4 device slots
    /// and 8 host slots holds 4 + 8 rows, however many items there are.
    #[test]
    fn fill_rows_scale_with_slots_not_items() {
        let items = 1 << 20;
        let scenario = Scenario::builder()
            .items(items as u64)
            .uniform_cluster(1, 1, 4, 8)
            .build();
        let core: NodeCore = NodeCore::new(&scenario, 0, items, 4, 8, true);
        assert_eq!(core.dev_fills.len() + core.host_fills.len(), 4 + 8);
    }
}
