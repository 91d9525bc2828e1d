//! Conservative time-window parallel engine for the cluster simulator.
//!
//! The sequential simulator pops one global event queue. This module shards
//! that queue: nodes are partitioned into `K` contiguous shards, each with
//! its own [`SlabEventQueue`] and its own slice of per-node state, and all
//! shards advance in lock-step *time windows* on [`StealPool::run_rounds`]:
//! shard `i` always runs on thread `i % threads`, the barrier on the caller.
//!
//! # Why the window width is safe
//!
//! A shard may only execute events it can prove no other shard will still
//! influence. Cross-shard influence travels exactly three ways, and each is
//! barrier-mediated:
//!
//! * **Network messages** ([`Ev::Net`]) arrive at least `net_latency` after
//!   they are sent; cross-shard sends park in the sender's outbox and merge
//!   into the destination queue at the barrier.
//! * **Storage completions** ([`Ev::IoDone`]) arrive at least
//!   `service + storage_latency` after the request; requests defer to the
//!   barrier, where they are submitted to the shared storage engine in
//!   global `(time, prio)` order.
//! * **Work stealing** happens only at barriers, matched deterministically
//!   over per-shard victim bitsets that every shard keeps current.
//!
//! With windows of width `min(net_latency, service + storage_latency)`,
//! every cross-shard event produced inside window `W` lands at or after the
//! barrier that ends `W` — before any shard enters `W+1`.
//!
//! # Why results are byte-identical to the sequential engine
//!
//! Every event carries priority `(node << 40) | seq` drawn from a monotonic
//! per-node counter, and queues order by `(time, prio, slot)`. Priorities
//! are globally unique, so the slot tie-break never fires and the relative
//! order of any two events is a pure function of their keys — independent
//! of which queue holds them or how events were interleaved at insertion.
//! Per-node RNG streams (stage sampling), per-node resource engines, and
//! per-node counters make each node's handler sequence invariant under the
//! shard count; the shared storage engine and the steal RNG are driven only
//! from barriers, in a schedule that the sequential engine replays exactly
//! (it flushes storage requests whenever virtual time advances past them —
//! the same sorted batches, concatenated). `tests/shard_equivalence.rs`
//! fuzzes the claim over shard counts through `SimBackend::sharded`; this
//! module's tests cover thread counts, which have no public knob.

use std::collections::VecDeque;

use rocket_sanitize::Mutex;

use rocket_cache::SlotIdx;
use rocket_core::engine::{NodeCore, NodeIo, ReadyCompare};
use rocket_core::{BusyTimes, RunReport, Scenario};
use rocket_stats::{SeedSequence, Xoshiro256};
use rocket_steal::{Block, Pair, StealPool, TaskDeque};
use rocket_trace::{PerfKind, PerfLog, PerfRecord};

use crate::cluster::{sample_ns, transfer_ns, Ev, GpuRates, Msg, SimGpu, SimNode, Staged};
use crate::engine::{ns_to_secs, secs_to_ns, EventQueue, SimTime, SlabEventQueue};
use crate::server::{Engine, Pool};

/// Virtual nanoseconds without a pair completion before declaring deadlock.
const STALL_NS: u64 = 300_000_000_000;

/// A node must have been hungry this long (virtual) before a boundary
/// steal match will hand it a sub-leaf remnant. Remnant steals drag the
/// victim's items to the thief for a handful of pairs, so they only pay
/// off against genuine stragglers (a slow node grinding a tail while fast
/// nodes idle); un-started whole-leaf backlog is always fair game. The
/// gate is virtual-time based, so it is invariant under shard and thread
/// counts. Tuned together with `RICH_BACKLOG_DIVISOR` on both bench
/// anchors: on the 16-node anchor, 30 ms + the scaled rich threshold give
/// makespan 0.849 s with 655 loads and 70 steals, vs 0.863 s / 651 loads
/// for the greedy policy (steal anything, immediately) it replaced; the
/// 1024-node anchor stays within 0.6% of greedy.
const REMNANT_STEAL_DELAY_NS: u64 = 30_000_000;

/// A victim counts as "rich" — stealable without any hunger delay — only
/// while its un-started backlog is at least a tenth of the average initial
/// per-node backlog (quantized to whole leaves, floor one leaf). Below
/// that, taking its front block mostly reshuffles cache locality for no
/// balance win. The threshold must scale with the workload: on the
/// 16-node anchor (~32 leaves/node) it lands at 3 leaves, while on the
/// 1024-node anchor (~8 leaves/node) it relaxes to 1 — a fixed 3-leaf bar
/// there starves thieves into the remnant path and costs 8% makespan.
const RICH_BACKLOG_DIVISOR: u64 = 10;

/// Low bits of an event priority hold the per-node sequence number; the
/// node id sits above them.
const PRIO_SEQ_BITS: u32 = 40;

/// Read-only run context shared by every shard (and the barrier driver).
pub(crate) struct Ctx<'a> {
    cfg: &'a Scenario,
    /// Perf-sample sink; records fold into it once the report is final.
    perf: &'a PerfLog,
    total_pairs: u64,
    /// Lock-step window width in ns: the conservative lookahead.
    window_ns: u64,
    net_lat_ns: u64,
    storage_lat_ns: u64,
    /// Storage service time of one file load (constant per run).
    load_service_ns: u64,
    /// Owning shard of each global node.
    node_shard: Vec<usize>,
    /// Backlog (pairs) at which a victim is "rich": see
    /// [`RICH_BACKLOG_DIVISOR`].
    rich_pairs: u64,
}

/// One shard: a contiguous slice of nodes plus its own event queue.
pub(crate) struct ShardState {
    id: usize,
    /// Global index of `nodes[0]`.
    base: usize,
    nodes: Vec<SimNode>,
    /// Each node's state machine (`cores[i]` ↔ `nodes[i]`).
    cores: Vec<NodeCore>,
    queue: SlabEventQueue<Ev>,
    /// Cross-shard messages produced this window: `(at, prio, to, from, msg)`.
    outbox: Vec<(SimTime, u64, usize, usize, Msg)>,
    /// Deferred storage requests: `(at, prio, node, item)`.
    load_reqs: Vec<(SimTime, u64, usize, u64)>,
    ev_counts: [u64; 10],
    /// End (exclusive) of the window this shard may currently execute.
    window_end: SimTime,
    /// Nodes of this shard with `hungry` set (steal candidates).
    hungry_count: usize,
    pairs_done: u64,
    pairs_started: u64,
    /// Per-node event-priority counters (`nodes[i]` ↔ `seqs[i]`), kept as
    /// a dense side array: `next_prio` runs on every schedule, and two hot
    /// cache lines beat a scattered read into each node's struct.
    seqs: Vec<u64>,
    /// Σ `SimNode::blocks` over this shard. Zero everywhere means nothing
    /// is stealable, letting `steal_match` return at once — which is most
    /// boundaries late in a run, when all remaining work is in flight and
    /// hungry nodes can only wait.
    work_blocks: usize,
    /// Victim index, one bit per local node (`nodes[i]` ↔ bit `i % 64` of
    /// word `i / 64`): `any` marks nodes with a stealable block, `rich`
    /// those whose backlog also reaches `Ctx::rich_pairs`, and `hungry`
    /// mirrors `SimNode::hungry`. Shard-local, so windowed shards keep
    /// them current in parallel and `steal_match` never scans nodes.
    any: Vec<u64>,
    rich: Vec<u64>,
    hungry: Vec<u64>,
    /// Perf-sample buffer (`Some` iff `Ctx::perf` is enabled). Records
    /// stay shard-local during the run and fold into `Ctx::perf` in
    /// `finish`, after the report is final — so instrumentation can never
    /// perturb the `RunReport`, and the fold order (shard order, then
    /// driver) is byte-stable across thread counts.
    perf: Option<Vec<PerfRecord>>,
}

/// Barrier-side state: everything shards must never touch concurrently.
struct Driver {
    storage: Engine,
    steal_rng: Xoshiro256,
    steals: u64,
    windows: u64,
    /// Scratch: merged storage requests, sorted by `(at, prio)`.
    loads: Vec<(SimTime, u64, usize, u64)>,
    /// Scratch: merged cross-shard messages, sorted by `(at, prio)`.
    msgs: Vec<(SimTime, u64, usize, usize, Msg)>,
    /// Scratch: this boundary's thieves, whose victim bits wait until the
    /// match ends.
    thieves: Vec<usize>,
    /// Perf samples produced at barriers (storage reads, boundary steals).
    perf: Option<Vec<PerfRecord>>,
}

impl Driver {
    fn new(cfg: &Scenario, perf: &PerfLog) -> Self {
        Self {
            storage: Engine::new(),
            steal_rng: SeedSequence::new(cfg.seed).rng("steal"),
            steals: 0,
            windows: 0,
            loads: Vec::new(),
            msgs: Vec::new(),
            thieves: Vec::new(),
            perf: perf.is_enabled().then(Vec::new),
        }
    }
}

/// Draws the next event priority for global node `g` from its sequence
/// counter `seq`: unique across the whole run, ordered by
/// `(node, draw index)` within a timestamp.
#[inline]
fn draw_prio(seq: &mut u64, g: usize) -> u64 {
    let s = *seq;
    *seq += 1;
    debug_assert!(s < 1 << PRIO_SEQ_BITS, "per-node event seq overflow");
    ((g as u64) << PRIO_SEQ_BITS) | s
}

/// Appends a perf record when instrumentation is on — one branch, no
/// allocation, when it is off.
#[inline]
fn push_perf(
    buf: &mut Option<Vec<PerfRecord>>,
    t_ns: SimTime,
    kind: PerfKind,
    node: usize,
    value: u64,
) {
    if let Some(buf) = buf {
        buf.push(PerfRecord::new(t_ns, kind, node as u32, value));
    }
}

/// Runs one simulation of `scenario` to completion and folds it into the
/// unified report, streaming perf samples into `perf`.
///
/// `shards` is clamped to `1..=nodes` (empty shards would only pay barrier
/// overhead); `K = 1` runs sequentially, `K > 1` on the steal pool with
/// `threads` threads, the calling thread included (`0` picks the machine's
/// available parallelism). Neither changes a byte of the report except
/// `sim_shards`, which records the clamped `K`.
pub(crate) fn run(scenario: &Scenario, shards: usize, threads: usize, perf: &PerfLog) -> RunReport {
    let k = shards.max(1).min(scenario.nodes.len().max(1));
    let ctx = build_ctx(scenario, perf, k);
    let mut shards = build_shards(scenario, &ctx, k);
    let mut drv = Driver::new(scenario, perf);
    if ctx.total_pairs > 0 {
        if k == 1 {
            run_sequential(&ctx, &mut shards[0], &mut drv);
        } else {
            shards = run_windowed(&ctx, shards, threads, &mut drv);
        }
    }
    finish(&ctx, shards, drv)
}

/// Contiguous node ranges: the first `p % k` shards get one extra node.
fn shard_ranges(p: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let (div, rem) = (p / k, p % k);
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for s in 0..k {
        let len = div + usize::from(s < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

fn build_ctx<'a>(cfg: &'a Scenario, perf: &'a PerfLog, k: usize) -> Ctx<'a> {
    assert!(!cfg.nodes.is_empty(), "cluster needs nodes");
    let n = cfg.workload.items;
    let p = cfg.nodes.len();
    let mut node_shard = vec![0usize; p];
    for (s, range) in shard_ranges(p, k).into_iter().enumerate() {
        for g in range {
            node_shard[g] = s;
        }
    }
    let net_lat_ns = secs_to_ns(cfg.net_latency);
    let storage_lat_ns = secs_to_ns(cfg.storage_latency);
    let load_service_ns = secs_to_ns(cfg.workload.file_bytes as f64 / cfg.storage_bandwidth);
    // The safe lookahead: both cross-shard channels (network messages and
    // barrier-routed storage completions) must outrun one full window.
    let window_ns = net_lat_ns
        .max(1)
        .min((load_service_ns + storage_lat_ns).max(1));
    let total_pairs = n * n.saturating_sub(1) / 2;
    let leaf = cfg.leaf_pairs.max(1);
    let rich_pairs = leaf * (total_pairs / (p as u64 * RICH_BACKLOG_DIVISOR * leaf)).max(1);
    Ctx {
        cfg,
        perf,
        total_pairs,
        window_ns,
        net_lat_ns,
        storage_lat_ns,
        load_service_ns,
        node_shard,
        rich_pairs,
    }
}

fn build_shards(cfg: &Scenario, ctx: &Ctx, k: usize) -> Vec<ShardState> {
    let n = cfg.workload.items;
    let p = cfg.nodes.len();
    let seeds = SeedSequence::new(cfg.seed);
    let mut shards = Vec::with_capacity(k);
    for (sid, range) in shard_ranges(p, k).into_iter().enumerate() {
        let base = range.start;
        let (nodes, cores): (Vec<SimNode>, Vec<NodeCore>) = range
            .map(|rank| {
                let nc = &cfg.nodes[rank];
                let (dev_slots, host_slots) = nc.sim_slots(n);
                let preprocess = cfg.workload.preprocess.is_some();
                let core = NodeCore::new(cfg, rank, n as usize, dev_slots, host_slots, preprocess);
                let node = SimNode {
                    deque: TaskDeque::new(),
                    cursor: None,
                    blocks: 0,
                    pending: 0,
                    gpus: nc
                        .gpus
                        .iter()
                        .map(|profile| SimGpu {
                            rates: GpuRates::from(profile),
                            compute: Engine::new(),
                            h2d: Engine::new(),
                            d2h: Engine::new(),
                            tasks: VecDeque::new(),
                            pre_busy_ns: 0,
                            cmp_busy_ns: 0,
                        })
                        .collect(),
                    cpu: Pool::new(cfg.cpu_threads),
                    post: Engine::new(),
                    retiring: VecDeque::new(),
                    nic: Engine::new(),
                    pairs_done: 0,
                    rng: seeds.rng_indexed("node", rank as u64),
                    hungry: false,
                    hungry_since: 0,
                    io_bytes: 0,
                    net_bytes: 0,
                    makespan_ns: 0,
                };
                (node, core)
            })
            .unzip();
        let seqs = vec![0; nodes.len()];
        let words = nodes.len().div_ceil(64);
        let mut shard = ShardState {
            id: sid,
            base,
            nodes,
            cores,
            queue: SlabEventQueue::new(),
            outbox: Vec::new(),
            load_reqs: Vec::new(),
            ev_counts: [0; 10],
            window_end: 0,
            hungry_count: 0,
            pairs_done: 0,
            pairs_started: 0,
            seqs,
            work_blocks: 0,
            any: vec![0; words],
            rich: vec![0; words],
            hungry: vec![0; words],
            perf: ctx.perf.is_enabled().then(Vec::new),
        };
        if ctx.total_pairs > 0 {
            // The master node spawns the root task (§4.2); every node
            // starts with a keyed Pull at t = 0.
            if base == 0 {
                shard.push_block(0, Block::root(n));
                shard.index_victim(ctx, 0);
            }
            for g in shard.base..shard.base + shard.nodes.len() {
                let prio = shard.next_prio(g);
                shard.queue.schedule_keyed(0, prio, Ev::Pull { node: g });
            }
        }
        shards.push(shard);
    }
    shards
}

// ---- drivers --------------------------------------------------------------

/// `K = 1`: a plain sequential event loop that still replays the exact
/// barrier schedule of the windowed driver (same storage submission order,
/// same boundary steals, same window count) so results stay byte-identical.
///
/// Why a second driver loop: it skips the barrier wherever no node is
/// hungry and no storage request is pending, which `run_windowed` cannot.
/// Routing `K = 1` through `run_windowed` was measured on the harness's
/// `cluster-study` workload (≈130 k tiny windows a repetition, 2 hardware
/// threads): the plain fold cost +22 % `wall_s` and +23 % `cpu_s`, and a
/// fold with no lock or allocation per window still cost +9 % `wall_s` and
/// +14 % `cpu_s`, slower in 10 of 10 alternating pairs.
fn run_sequential(ctx: &Ctx, shard: &mut ShardState, drv: &mut Driver) {
    let win = ctx.window_ns;
    let mut last = (0u64, 0u64); // (pairs_done, virtual ns)
    while shard.pairs_done < ctx.total_pairs {
        if shard.pairs_done != last.0 {
            last = (shard.pairs_done, shard.queue.now());
        } else if shard.queue.now() > last.1 + STALL_NS {
            stall_panic(
                ctx,
                &mut [&mut *shard],
                drv,
                "no progress for 5min of virtual time",
            );
        }
        if shard.hungry_count == 0 && shard.load_reqs.is_empty() {
            // Fast path: nothing is waiting on a barrier, so pop without
            // peeking; only track which windows we enter so the count
            // matches the windowed driver.
            let Some((t, ev)) = shard.queue.pop() else {
                stall_panic(ctx, &mut [&mut *shard], drv, "event queue drained");
            };
            if t >= shard.window_end {
                drv.windows += 1;
                shard.window_end = (t / win + 1) * win;
            }
            shard.handle(ctx, ev);
            #[cfg(debug_assertions)]
            shard.validate(ctx);
            continue;
        }
        // Bounded mode: deferred storage requests flush as soon as virtual
        // time moves past them — the same per-timestamp batches, in the
        // same `(at, prio)` order, that window barriers would concatenate.
        let t = shard.queue.peek_time();
        if let Some(&(req_t, ..)) = shard.load_reqs.first() {
            if t.is_none_or(|t| t > req_t) {
                flush_loads(ctx, &mut [&mut *shard], drv);
                continue; // an IoDone may now be the earliest event
            }
        }
        let Some(t) = t else {
            stall_panic(ctx, &mut [&mut *shard], drv, "event queue drained");
        };
        if t >= shard.window_end {
            // Window boundary: run the barrier's steal match, then enter
            // the next non-empty window.
            let boundary = shard.window_end;
            steal_match(ctx, &mut [&mut *shard], drv, boundary);
            drv.windows += 1;
            record_gauges(&mut [&mut *shard], boundary);
            let t2 = shard.queue.peek_time().unwrap_or(t);
            shard.window_end = (t2 / win + 1) * win;
            continue;
        }
        let (_, ev) = shard.queue.pop().expect("peeked event");
        shard.handle(ctx, ev);
        #[cfg(debug_assertions)]
        shard.validate(ctx);
    }
}

/// `K > 1`: lock-step windows on [`StealPool::run_rounds`]. Each round runs
/// every shard's current window, each shard on the thread that owns it;
/// `between` then plays the barrier (deliver, flush, steal, advance).
fn run_windowed(
    ctx: &Ctx,
    shards: Vec<ShardState>,
    threads: usize,
    drv: &mut Driver,
) -> Vec<ShardState> {
    let k = shards.len();
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
    .min(k)
    .max(1);
    let cells: Vec<Mutex<ShardState>> = shards
        .into_iter()
        .map(|s| Mutex::named("cells", s))
        .collect();
    // First window: fast-forward to the earliest event (t = 0 here, since
    // every node schedules a Pull at zero).
    {
        let mut min_t: Option<SimTime> = None;
        for c in &cells {
            if let Some(t) = c.lock().queue.peek_time() {
                min_t = Some(min_t.map_or(t, |m| m.min(t)));
            }
        }
        let w_end = (min_t.unwrap_or(0) / ctx.window_ns + 1) * ctx.window_ns;
        for c in &cells {
            c.lock().window_end = w_end;
        }
    }
    let mut last = (0u64, 0u64); // (pairs_done, virtual ns)
    StealPool::run_rounds(
        k,
        threads,
        |i| {
            // run_rounds pins shard `i` to one thread for the whole run,
            // so this lock is never contended and the modeled IO inside
            // run_window blocks nobody else.
            cells[i].lock().run_window(ctx);
        },
        || {
            let mut guards: Vec<_> = cells.iter().map(|c| c.lock()).collect();
            let mut sh: Vec<&mut ShardState> = guards.iter_mut().map(|g| &mut **g).collect();
            let boundary = sh[0].window_end;
            barrier_step(ctx, &mut sh, drv, boundary);
            let done: u64 = sh.iter().map(|s| s.pairs_done).sum();
            if done >= ctx.total_pairs {
                return false;
            }
            let min_t = sh.iter_mut().filter_map(|s| s.queue.peek_time()).min();
            let Some(t) = min_t else {
                stall_panic(ctx, &mut sh, drv, "event queue drained");
            };
            if done != last.0 {
                last = (done, t);
            } else if t > last.1 + STALL_NS {
                stall_panic(ctx, &mut sh, drv, "no progress for 5min of virtual time");
            }
            let w_end = (t / ctx.window_ns + 1) * ctx.window_ns;
            for s in sh {
                s.window_end = w_end;
            }
            true
        },
    );
    cells.into_iter().map(Mutex::into_inner).collect()
}

/// The window barrier, identical for the sequential replay and the
/// parallel driver: merge cross-shard messages, submit deferred storage
/// requests in global order, match steals, count the window.
fn barrier_step(ctx: &Ctx, shards: &mut [&mut ShardState], drv: &mut Driver, boundary: SimTime) {
    deliver_messages(ctx, shards, drv);
    flush_loads(ctx, shards, drv);
    steal_match(ctx, shards, drv, boundary);
    drv.windows += 1;
    record_gauges(shards, boundary);
}

/// Per-shard engine gauges, sampled at executed barriers: queue depth and
/// cumulative events handled (diff consecutive `Window` records for a
/// per-window event cost). Barriers that the sequential fast path skips
/// (no hungry nodes, no pending loads) record nothing, so gauge *timing*
/// is a property of the engine configuration — unlike node-level records,
/// which are identical for every shard count.
fn record_gauges(shards: &mut [&mut ShardState], boundary: SimTime) {
    for s in shards.iter_mut() {
        if s.perf.is_some() {
            let sid = s.id;
            let depth = s.queue.len() as u64;
            let events: u64 = s.ev_counts.iter().sum();
            push_perf(&mut s.perf, boundary, PerfKind::QueueDepth, sid, depth);
            push_perf(&mut s.perf, boundary, PerfKind::Window, sid, events);
        }
    }
}

fn deliver_messages(ctx: &Ctx, shards: &mut [&mut ShardState], drv: &mut Driver) {
    let mut msgs = std::mem::take(&mut drv.msgs);
    for s in shards.iter_mut() {
        msgs.append(&mut s.outbox);
    }
    if !msgs.is_empty() {
        // Priorities are globally unique, so the sort fully determines
        // delivery (and therefore payload-slot assignment) order.
        msgs.sort_unstable_by_key(|&(at, p, ..)| (at, p));
        for (at, p, to, from, msg) in msgs.drain(..) {
            shards[ctx.node_shard[to]]
                .queue
                .schedule_keyed(at, p, Ev::Net { to, from, msg });
        }
    }
    drv.msgs = msgs;
}

fn flush_loads(ctx: &Ctx, shards: &mut [&mut ShardState], drv: &mut Driver) {
    let mut loads = std::mem::take(&mut drv.loads);
    for s in shards.iter_mut() {
        loads.append(&mut s.load_reqs);
    }
    if !loads.is_empty() {
        loads.sort_unstable_by_key(|&(at, p, ..)| (at, p));
        for &(at, p, node, item) in &loads {
            let done = drv.storage.submit(at, ctx.load_service_ns) + ctx.storage_lat_ns;
            // Read latency as the node observes it: queueing at the shared
            // storage engine plus service plus delivery latency.
            push_perf(&mut drv.perf, done, PerfKind::Read, node, done - at);
            shards[ctx.node_shard[node]]
                .queue
                .schedule_keyed(done, p, Ev::IoDone { node, item });
        }
        loads.clear();
    }
    drv.loads = loads;
}

/// Matches hungry nodes (out of local work) with victims, in ascending
/// global node order, over the shards' victim bitsets. A robbed victim's
/// bits update at once; a thief's fresh block is not re-offered within the
/// same boundary (its bits update after the loop). A hungry node owns no
/// block, so it is never its own candidate. The RNG advances only on a
/// match, so boundaries without steal pressure cost no randomness.
///
/// Victim tiers. Rich victims (backlog ≥ `Ctx::rich_pairs`) are always
/// fair game — moving whole quadrants is what stealing is for. Sub-leaf
/// remnants only feed thieves starved for `REMNANT_STEAL_DELAY_NS`:
/// remnant steals drag the victim's items along for a handful of pairs, so
/// they must stay a last resort against genuine stragglers, not fire at
/// every boundary. See `RICH_BACKLOG_DIVISOR` for the threshold.
fn steal_match(ctx: &Ctx, shards: &mut [&mut ShardState], drv: &mut Driver, boundary: SimTime) {
    if shards.iter().map(|s| s.hungry_count).sum::<usize>() == 0 {
        return;
    }
    // No block anywhere means no possible victim. It is the common case
    // late in a run, when every remaining pair is in flight and thieves
    // just wait.
    if shards.iter().map(|s| s.work_blocks).sum::<usize>() == 0 {
        return;
    }
    let mut thieves = std::mem::take(&mut drv.thieves);
    for sg in 0..shards.len() {
        for w in 0..shards[sg].hungry.len() {
            // Only thieves leave the hungry set during the match, each at
            // its own turn, so a copy of the word is exact.
            let mut word = shards[sg].hungry[w];
            while word != 0 {
                let l = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let g = shards[sg].base + l;
                let mut rich = true;
                let mut count = count_victims(shards, rich);
                if count == 0 {
                    if boundary < shards[sg].nodes[l].hungry_since + REMNANT_STEAL_DELAY_NS {
                        continue;
                    }
                    rich = false;
                    count = count_victims(shards, rich);
                    if count == 0 {
                        continue;
                    }
                }
                let victim = select_victim(shards, rich, drv.steal_rng.below(count));
                let block = shards[ctx.node_shard[victim]].give_block(ctx, victim);
                drv.steals += 1;
                // Thief's node id, pairs moved.
                push_perf(&mut drv.perf, boundary, PerfKind::Steal, g, block.count());
                let s = &mut shards[sg];
                s.push_block(g, block);
                s.set_hungry(g, false);
                let p = s.next_prio(g);
                s.queue.schedule_keyed(boundary, p, Ev::Pull { node: g });
                thieves.push(g);
            }
        }
    }
    for g in thieves.drain(..) {
        let s = &mut shards[ctx.node_shard[g]];
        s.index_victim(ctx, g - s.base);
    }
    drv.thieves = thieves;
}

/// Candidate victims cluster-wide in one tier: a popcount per word.
fn count_victims(shards: &[&mut ShardState], rich: bool) -> usize {
    shards
        .iter()
        .map(|s| {
            s.victims(rich)
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
        })
        .sum()
}

/// Global id of the `k`-th (0-based) candidate victim in one tier, in
/// ascending node order: shards hold contiguous, ascending node ranges.
fn select_victim(shards: &[&mut ShardState], rich: bool, mut k: usize) -> usize {
    for s in shards {
        match select_bit(s.victims(rich), k) {
            Ok(l) => return s.base + l,
            Err(rest) => k = rest,
        }
    }
    unreachable!("pick below the victim count")
}

/// Position of the `k`-th (0-based) set bit of `words`, or `Err` with
/// `k` minus the bits set, when fewer than `k + 1` are.
fn select_bit(words: &[u64], mut k: usize) -> Result<usize, usize> {
    for (i, &w) in words.iter().enumerate() {
        let ones = w.count_ones() as usize;
        if k < ones {
            let mut w = w;
            for _ in 0..k {
                w &= w - 1;
            }
            return Ok(i * 64 + w.trailing_zeros() as usize);
        }
        k -= ones;
    }
    Err(k)
}

fn stall_panic(ctx: &Ctx, shards: &mut [&mut ShardState], drv: &Driver, why: &str) -> ! {
    let mut diag = String::new();
    let mut ev_counts = [0u64; 10];
    let mut queue_len = 0usize;
    let (mut done, mut started) = (0u64, 0u64);
    for s in shards.iter() {
        for (i, c) in s.ev_counts.iter().enumerate() {
            ev_counts[i] += c;
        }
        queue_len += s.queue.len();
        done += s.pairs_done;
        started += s.pairs_started;
        for (li, (node, core)) in s.nodes.iter().zip(&s.cores).enumerate() {
            diag.push_str(&format!(
                "\n node {}: blocks={} ({} pairs) hungry={} {}",
                s.base + li,
                node.blocks,
                node.pending,
                node.hungry,
                core.describe(),
            ));
        }
    }
    panic!(
        "simulation stalled ({why}): {done}/{} pairs done (started {started}){diag}\n              event counts [pull,io,parse,staging,pre,writeback,fillcopy,cmp,post,net]: {ev_counts:?}\n              windows {} queue len {queue_len}",
        ctx.total_pairs, drv.windows,
    );
}

/// Folds per-node state in global node order into the [`RunReport`] — the
/// fold never depends on the shard count, only on the node order.
fn finish(ctx: &Ctx, shards: Vec<ShardState>, drv: Driver) -> RunReport {
    // No pair fails: the simulator models no storage faults.
    let mut r = RunReport {
        backend: "sim",
        items: ctx.cfg.workload.items,
        steals: drv.steals,
        busy: BusyTimes {
            io: ns_to_secs(drv.storage.busy_ns()),
            ..BusyTimes::default()
        },
        pairs_per_node: Vec::with_capacity(ctx.node_shard.len()),
        sim_shards: shards.len() as u32,
        sim_windows: drv.windows,
        ..RunReport::default()
    };
    let mut makespan_ns: SimTime = 0;
    let mut perf_records = ctx.perf.is_enabled().then(Vec::new);
    for mut shard in shards {
        // Shards are ordered by `base`, so this walks global node order —
        // and folds perf buffers in the same order, making the record
        // sequence byte-stable across thread counts at a fixed shard count.
        if let (Some(acc), Some(buf)) = (&mut perf_records, &mut shard.perf) {
            acc.append(buf);
        }
        r.pairs += shard.pairs_done;
        for (node, core) in shard.nodes.iter().zip(&shard.cores) {
            makespan_ns = makespan_ns.max(node.makespan_ns);
            core.fold_into(&mut r);
            r.io_bytes += node.io_bytes;
            r.net_bytes += node.net_bytes;
            r.pairs_per_node.push(node.pairs_done);
            r.busy.cpu += ns_to_secs(node.cpu.busy_ns() + node.post.busy_ns());
            for gpu in &node.gpus {
                r.busy.preprocess += ns_to_secs(gpu.pre_busy_ns);
                r.busy.compare += ns_to_secs(gpu.cmp_busy_ns);
                r.busy.h2d += ns_to_secs(gpu.h2d.busy_ns());
                r.busy.d2h += ns_to_secs(gpu.d2h.busy_ns());
            }
        }
    }
    r.elapsed = ns_to_secs(makespan_ns);
    r.net_msgs = r.directory.messages_sent;
    if let Some(mut records) = perf_records {
        if let Some(barrier) = drv.perf {
            records.extend(barrier);
        }
        ctx.perf.extend(records);
    }
    r
}

// ---- per-shard event handlers --------------------------------------------
//
// The shard is the simulator's executor of each node's `NodeCore`: it
// feeds the core one event at a time and, through `SimIo`, turns each side
// effect the core asks for into a timed event. Nodes are addressed by
// *global* id (`g - self.base` indexes the shard's slice), every schedule
// draws a keyed priority from the node's monotonic sequence, and the three
// cross-shard channels (messages, storage, steals) defer to the barrier
// instead of acting inline.

impl ShardState {
    /// Executes every event strictly before `window_end`.
    fn run_window(&mut self, ctx: &Ctx) {
        while let Some(t) = self.queue.peek_time() {
            if t >= self.window_end {
                break;
            }
            let (_, ev) = self.queue.pop().expect("peeked event");
            self.handle(ctx, ev);
            #[cfg(debug_assertions)]
            self.validate(ctx);
        }
    }

    /// Draws the next event priority for global node `g`: unique across
    /// the whole run, ordered by `(node, draw index)` within a timestamp.
    #[inline]
    fn next_prio(&mut self, g: usize) -> u64 {
        draw_prio(&mut self.seqs[g - self.base], g)
    }

    /// Re-derives local node `l`'s `any`/`rich` victim bits from its
    /// counters.
    #[inline]
    fn index_victim(&mut self, ctx: &Ctx, l: usize) {
        let node = &self.nodes[l];
        let (any, rich) = (node.blocks > 0, node.pending >= ctx.rich_pairs);
        let (w, bit) = (l / 64, 1u64 << (l % 64));
        self.any[w] = (self.any[w] & !bit) | if any { bit } else { 0 };
        self.rich[w] = (self.rich[w] & !bit) | if any && rich { bit } else { 0 };
    }

    /// One victim tier's bitset.
    #[inline]
    fn victims(&self, rich: bool) -> &[u64] {
        if rich {
            &self.rich
        } else {
            &self.any
        }
    }

    /// Queues `block` on node `g`'s deque. Victim bits are the caller's.
    fn push_block(&mut self, g: usize, block: Block) {
        let node = &mut self.nodes[g - self.base];
        node.deque.push(block);
        node.blocks += 1;
        node.pending += block.count();
        self.work_blocks += 1;
    }

    /// Takes victim `g`'s oldest block: the deque front or, once the
    /// deque is empty, the open cursor (the deque's logical newest entry).
    fn give_block(&mut self, ctx: &Ctx, g: usize) -> Block {
        let l = g - self.base;
        let node = &mut self.nodes[l];
        let block = node
            .deque
            .steal()
            .or_else(|| node.cursor.take())
            .expect("victim owns a block");
        node.blocks -= 1;
        node.pending -= block.count();
        self.work_blocks -= 1;
        self.index_victim(ctx, l);
        block
    }

    #[inline]
    fn set_hungry(&mut self, g: usize, flag: bool) {
        let now = self.queue.now();
        let l = g - self.base;
        let node = &mut self.nodes[l];
        if node.hungry != flag {
            node.hungry = flag;
            self.hungry[l / 64] ^= 1u64 << (l % 64);
            if flag {
                node.hungry_since = now;
                self.hungry_count += 1;
            } else {
                self.hungry_count -= 1;
            }
        }
    }

    /// Handles one event, then runs the continuations it woke on its node
    /// (every event concerns one node) and flushes its ready compares, as
    /// the conductor does after a drain of its event queue, and, in debug
    /// builds, checks that node's lease accounting.
    fn handle(&mut self, ctx: &Ctx, ev: Ev) {
        let (idx, node) = match ev {
            Ev::Pull { node } => (0, node),
            Ev::IoDone { node, .. } => (1, node),
            Ev::ParseDone { node, .. } => (2, node),
            Ev::StagingDone { node, .. } => (3, node),
            Ev::PreprocessDone { node, .. } => (4, node),
            Ev::WritebackDone { node, .. } => (5, node),
            Ev::FillCopyDone { node, .. } => (6, node),
            Ev::CompareDone { node, .. } => (7, node),
            Ev::PostDone { node, .. } => (8, node),
            Ev::Net { to, .. } => (9, to),
        };
        self.ev_counts[idx] += 1;
        match ev {
            Ev::Pull { .. } => self.pull_work(ctx, node),
            Ev::IoDone { item, .. } => {
                self.with_core(ctx, node, |core, io| core.read_done(item, Ok(()), io))
            }
            Ev::ParseDone { item, .. } => {
                self.with_core(ctx, node, |core, io| core.parse_done(item, Ok(()), io))
            }
            Ev::StagingDone { s, .. } => self.with_core(ctx, node, |_, io| io.preprocess_kernel(s)),
            Ev::PreprocessDone { s, .. } => self.with_core(ctx, node, |core, io| {
                core.preprocess_done(s.gpu, s.staging, s.item, Ok(()), io)
            }),
            Ev::WritebackDone { item, .. } => {
                self.with_core(ctx, node, |core, io| core.write_back_done(item, Ok(()), io))
            }
            Ev::FillCopyDone { gpu, item, .. } => {
                self.cores[node - self.base].fill_copy_done(gpu, item, Ok(()))
            }
            Ev::CompareDone { gpu, k, .. } => self.on_compare_done(ctx, node, gpu, k),
            Ev::PostDone { k, .. } => self.retire(ctx, node, k),
            Ev::Net { from, msg, .. } => {
                self.with_core(ctx, node, |core, io| core.on_peer(from, msg, io))
            }
        }
        if !self.cores[node - self.base].is_drained() {
            self.with_core(ctx, node, |core, io| {
                core.drain(io);
                core.flush(io);
            });
        }
        #[cfg(debug_assertions)]
        self.cores[node - self.base].check();
    }

    // ---- work acquisition ------------------------------------------------

    fn pull_work(&mut self, ctx: &Ctx, node: usize) {
        let l = node - self.base;
        loop {
            if !self.cores[l].has_room() {
                // Capacity-limited, not starved: job completions re-pull.
                self.set_hungry(node, false);
                return;
            }
            if let Some(pair) = self.next_pair(ctx, node) {
                self.start_job(ctx, node, pair);
            } else {
                // Out of reachable work: flag for the next window-boundary
                // steal match.
                self.set_hungry(node, true);
                return;
            }
        }
    }

    /// Takes node `node`'s next pair, keeping its `blocks`/`pending`
    /// counters, `work_blocks` and its victim bits exact.
    #[inline]
    fn next_pair(&mut self, ctx: &Ctx, node: usize) -> Option<Pair> {
        let l = node - self.base;
        let n = &mut self.nodes[l];
        // Stream from the open row first: the cursor is exactly the
        // rest-of-row block the one-block-per-pair scheme would have
        // pushed to (and immediately popped back off) the deque tail, so
        // consumption order is unchanged while each pair costs an
        // increment instead of deque traffic. It stays the deque's logical
        // newest entry: a thief takes it only once the deque is empty.
        let pair = if let Some(row) = n.cursor.as_mut() {
            let pair = Pair {
                left: row.row_lo,
                right: row.col_lo,
            };
            row.col_lo += 1;
            if row.col_lo == row.col_hi {
                n.cursor = None;
                n.blocks -= 1;
                self.work_blocks -= 1;
            }
            pair
        } else {
            loop {
                // Depth-first descent into the quadrant tree. No inline
                // stealing: hungry nodes wait for the deterministic
                // boundary match (`steal_match`).
                let block = n.deque.pop()?;
                n.blocks -= 1;
                self.work_blocks -= 1;
                if block.count() <= ctx.cfg.leaf_pairs {
                    // Take the first pair (row-major, matching
                    // `Block::pairs`), push the rows below back as a
                    // block, and keep the rest of the current row as the
                    // owner's cursor — row-major order for the owner while
                    // the un-started tail of the leaf remains stealable at
                    // window boundaries (a straggler's backlog can still
                    // migrate instead of being locked in).
                    let pair = block.pairs().next().expect("queued blocks are non-empty");
                    let below = Block {
                        row_lo: pair.left + 1,
                        ..block
                    };
                    if below.count() > 0 {
                        n.deque.push(below);
                        n.blocks += 1;
                        self.work_blocks += 1;
                    }
                    let row = Block {
                        row_lo: pair.left,
                        row_hi: pair.left + 1,
                        col_lo: pair.right + 1,
                        col_hi: block.col_hi,
                    };
                    if row.count() > 0 {
                        n.cursor = Some(row);
                        n.blocks += 1;
                        self.work_blocks += 1;
                    }
                    break pair;
                }
                for child in block.split() {
                    n.deque.push(child);
                    n.blocks += 1;
                    self.work_blocks += 1;
                }
            }
        };
        n.pending -= 1;
        self.index_victim(ctx, l);
        Some(pair)
    }

    fn start_job(&mut self, ctx: &Ctx, node: usize, pair: Pair) {
        self.pairs_started += 1;
        let l = node - self.base;
        // Bind to the least-loaded GPU of the node (per-GPU workers).
        let core = &self.cores[l];
        let gpu = (0..self.nodes[l].gpus.len())
            .min_by_key(|&g| core.jobs_on(g))
            .expect("nodes have GPUs");
        self.with_core(ctx, node, |core, io| core.submit(pair, gpu, io));
    }

    /// Runs `f` on node `node`'s core with the node's executor as its
    /// [`NodeIo`].
    #[inline]
    fn with_core<R>(
        &mut self,
        ctx: &Ctx,
        node: usize,
        f: impl FnOnce(&mut NodeCore, &mut SimIo) -> R,
    ) -> R {
        let l = node - self.base;
        let mut io = SimIo {
            ctx,
            node,
            shard: self.id,
            hw: &mut self.nodes[l],
            seq: &mut self.seqs[l],
            queue: &mut self.queue,
            outbox: &mut self.outbox,
            load_reqs: &mut self.load_reqs,
            perf: &mut self.perf,
        };
        f(&mut self.cores[l], &mut io)
    }

    // ---- job completion ---------------------------------------------------

    /// A compare task of `k` jobs on `gpu` ended: its jobs drop their
    /// leases, and the woken waiters run before the node pulls new work,
    /// as on the conductor. The node's server post-processes the results,
    /// submitted now so that it takes tasks in the order they end, and the
    /// jobs retire when it is done.
    fn on_compare_done(&mut self, ctx: &Ctx, node: usize, gpu: usize, k: usize) {
        let (l, now) = (node - self.base, self.queue.now());
        let (n, core) = (&mut self.nodes[l], &mut self.cores[l]);
        let start = n.post.free_at().max(now);
        let mut t = start;
        for job in n.gpus[gpu].tasks.drain(..k) {
            core.compare_done(job);
            let dur = sample_ns(&mut n.rng, &ctx.cfg.workload.postprocess);
            t += dur;
            push_perf(&mut self.perf, t, PerfKind::Postprocess, node, dur);
            n.retiring.push_back(job);
        }
        let done = n.post.submit(now, t - start);
        self.with_core(ctx, node, |core, io| {
            core.task_done(gpu, io);
            core.drain(io);
        });
        if done > now {
            let p = self.next_prio(node);
            self.queue.schedule_keyed(done, p, Ev::PostDone { node, k });
        } else {
            self.retire(ctx, node, k);
        }
    }

    /// Retires the node's `k` oldest post-processed jobs, whose
    /// post-processes have all ended (the server is FIFO), and pulls new
    /// work.
    fn retire(&mut self, ctx: &Ctx, node: usize, k: usize) {
        let (l, now) = (node - self.base, self.queue.now());
        let n = &mut self.nodes[l];
        for job in n.retiring.drain(..k) {
            let (_, gpu) = self.cores[l].retire(job);
            push_perf(&mut self.perf, now, PerfKind::PairDone, node, gpu as u64);
        }
        n.pairs_done += k as u64;
        n.makespan_ns = n.makespan_ns.max(now);
        self.pairs_done += k as u64;
        self.pull_work(ctx, node);
    }

    /// Debug-build cross-check: the steal index (per-node counters, victim
    /// and hungry bits) matches the deques it summarizes. Lease accounting
    /// is `NodeCore::check`, run after every event's drain.
    #[cfg(debug_assertions)]
    fn validate(&self, ctx: &Ctx) {
        let bit = |words: &[u64], l: usize| words[l / 64] >> (l % 64) & 1 == 1;
        let ones = |words: &[u64]| words.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        assert_eq!(
            ones(&self.hungry),
            self.hungry_count,
            "hungry bits vs hungry_count"
        );
        assert_eq!(
            self.nodes.iter().map(|n| n.blocks).sum::<usize>(),
            self.work_blocks,
            "work_blocks vs Σ blocks"
        );
        for (li, node) in self.nodes.iter().enumerate() {
            let ni = self.base + li;
            let cursor = node.cursor.as_ref();
            assert_eq!(
                node.blocks,
                node.deque.len() + usize::from(cursor.is_some()),
                "node {ni}: blocks counter drifted"
            );
            assert_eq!(
                node.pending,
                node.deque.pending_pairs() + cursor.map_or(0, Block::count),
                "node {ni}: pending counter drifted"
            );
            assert_eq!(bit(&self.any, li), node.blocks > 0, "node {ni}: any bit");
            assert_eq!(
                bit(&self.rich, li),
                node.blocks > 0 && node.pending >= ctx.rich_pairs,
                "node {ni}: rich bit"
            );
            assert_eq!(bit(&self.hungry, li), node.hungry, "node {ni}: hungry bit");
            assert!(
                !node.hungry || node.blocks == 0,
                "node {ni}: hungry with work"
            );
        }
    }
}

/// One node's executor while its shard handles one of the node's events:
/// the simulator's timing model of each [`NodeIo`] call. A side effect
/// becomes a sampled duration on a modeled server and an event at its
/// completion, scheduled with the node's next priority.
struct SimIo<'a> {
    ctx: &'a Ctx<'a>,
    /// Global id of the node.
    node: usize,
    shard: usize,
    hw: &'a mut SimNode,
    seq: &'a mut u64,
    queue: &'a mut SlabEventQueue<Ev>,
    outbox: &'a mut Vec<(SimTime, u64, usize, usize, Msg)>,
    load_reqs: &'a mut Vec<(SimTime, u64, usize, u64)>,
    perf: &'a mut Option<Vec<PerfRecord>>,
}

impl SimIo<'_> {
    /// Schedules `ev` at `done`, the end of a `dur`-long `kind` stage, and
    /// records the stage.
    #[inline]
    fn stage_done(&mut self, done: SimTime, dur: u64, kind: PerfKind, ev: Ev) {
        let p = draw_prio(self.seq, self.node);
        self.queue.schedule_keyed(done, p, ev);
        push_perf(self.perf, done, kind, self.node, dur);
    }

    /// The staged parsed bytes are on the device: run the pre-process
    /// kernel.
    fn preprocess_kernel(&mut self, s: Staged) {
        let dist = self.ctx.cfg.workload.preprocess.as_ref();
        let base = sample_ns(&mut self.hw.rng, dist.expect("preprocess stage"));
        let g = &mut self.hw.gpus[s.gpu];
        let dur = (base as f64 / g.rates.compute_scale) as u64;
        let done = g.compute.submit(self.queue.now(), dur);
        g.pre_busy_ns += dur;
        let ev = Ev::PreprocessDone { node: self.node, s };
        self.stage_done(done, dur, PerfKind::Preprocess, ev);
    }

    /// Routes a message to `to`, arriving at absolute time `at`. The
    /// priority is drawn from the *sender's* sequence — K-invariant, unlike
    /// anything involving the receiving queue. Cross-shard messages park in
    /// the outbox until the barrier.
    #[inline]
    fn route_at(&mut self, at: SimTime, to: usize, msg: Msg) {
        let (from, p) = (self.node, draw_prio(self.seq, self.node));
        if self.ctx.node_shard[to] == self.shard {
            self.queue.schedule_keyed(at, p, Ev::Net { to, from, msg });
        } else {
            self.outbox.push((at, p, to, from, msg));
        }
    }
}

impl NodeIo for SimIo<'_> {
    type Raw = ();
    type Data = ();

    /// Defers a storage load. The request is priced (`io_bytes`) here but
    /// submitted to the shared storage engine only at the next flush —
    /// time advance when sequential, window barrier when sharded — in
    /// global `(time, prio)` order, which is exactly the serialization the
    /// sequential engine sees.
    fn read(&mut self, item: u64) {
        self.hw.io_bytes += self.ctx.cfg.workload.file_bytes;
        let now = self.queue.now();
        let p = draw_prio(self.seq, self.node);
        self.load_reqs.push((now, p, self.node, item));
    }

    fn parse(&mut self, item: u64, _: SlotIdx, (): ()) {
        let dur = sample_ns(&mut self.hw.rng, &self.ctx.cfg.workload.parse);
        let done = self.hw.cpu.submit(self.queue.now(), dur);
        let ev = Ev::ParseDone {
            node: self.node,
            item,
        };
        self.stage_done(done, dur, PerfKind::Parse, ev);
    }

    /// Stages the parsed bytes to the device; `Ev::StagingDone` then runs
    /// the kernel.
    fn preprocess(&mut self, gpu: usize, item: u64, _: SlotIdx, staging: usize) {
        let g = &mut self.hw.gpus[gpu];
        let dur = transfer_ns(self.ctx.cfg.workload.item_bytes, g.rates.h2d_bytes_per_sec);
        let done = g.h2d.submit(self.queue.now(), dur);
        let (node, s) = (self.node, Staged { gpu, item, staging });
        self.stage_done(done, dur, PerfKind::CopyIn, Ev::StagingDone { node, s });
    }

    fn write_back(&mut self, gpu: usize, item: u64, _: SlotIdx, _: SlotIdx) {
        let g = &mut self.hw.gpus[gpu];
        let dur = transfer_ns(self.ctx.cfg.workload.item_bytes, g.rates.d2h_bytes_per_sec);
        let done = g.d2h.submit(self.queue.now(), dur);
        let ev = Ev::WritebackDone {
            node: self.node,
            item,
        };
        self.stage_done(done, dur, PerfKind::CopyOut, ev);
    }

    fn fill_copy(&mut self, gpu: usize, item: u64, _: SlotIdx, _: SlotIdx) {
        let g = &mut self.hw.gpus[gpu];
        let dur = transfer_ns(self.ctx.cfg.workload.item_bytes, g.rates.h2d_bytes_per_sec);
        let done = g.h2d.submit(self.queue.now(), dur);
        let ev = Ev::FillCopyDone {
            node: self.node,
            gpu,
            item,
        };
        self.stage_done(done, dur, PerfKind::CopyIn, ev);
    }

    /// One GPU task, as the conductor's launch thread runs it: the
    /// batch's kernels, then one read-back of its results, on the compute
    /// engine. Each pair logs an equal share of the task.
    fn compare_batch(&mut self, gpu: usize, batch: &[ReadyCompare]) {
        let (node, k) = (self.node, batch.len());
        let g = &mut self.hw.gpus[gpu];
        let results = self.ctx.cfg.workload.item_bytes.min(1024) * k as u64;
        let mut dur = transfer_ns(results, g.rates.d2h_bytes_per_sec);
        for _ in batch {
            let base = sample_ns(&mut self.hw.rng, &self.ctx.cfg.workload.compare);
            dur += (base as f64 / g.rates.compute_scale) as u64;
        }
        let done = g.compute.submit(self.queue.now(), dur);
        g.cmp_busy_ns += dur;
        g.tasks.extend(batch.iter().map(|c| c.id));
        if let Some(buf) = self.perf {
            let task = PerfRecord::new(done - dur, PerfKind::Compare, node as u32, dur);
            buf.extend(task.shares(k));
        }
        let p = draw_prio(self.seq, node);
        self.queue
            .schedule_keyed(done, p, Ev::CompareDone { node, gpu, k });
    }

    fn send(&mut self, to: usize, msg: Msg) {
        let at = self.queue.now() + self.ctx.net_lat_ns;
        self.route_at(at, to, msg);
    }

    /// A served fetch occupies this node's NIC for the item's transfer.
    fn serve_fetch(&mut self, to: usize, item: u64, hslot: Option<SlotIdx>) {
        if hslot.is_none() {
            return self.send(to, Msg::FetchReply { item, data: None });
        }
        let bytes = self.ctx.cfg.workload.item_bytes;
        self.hw.net_bytes += bytes;
        let dur = secs_to_ns(bytes as f64 / self.ctx.cfg.net_bandwidth);
        let done = self.hw.nic.submit(self.queue.now(), dur) + self.ctx.net_lat_ns;
        let data = Some(());
        self.route_at(done, to, Msg::FetchReply { item, data });
    }

    fn fetched(&mut self, _: SlotIdx, (): ()) {}

    fn fail_pair(&mut self, _: Pair, cause: String) {
        unreachable!("simulated loads never fail: {cause}")
    }

    fn note(&mut self, kind: PerfKind, item: u64) {
        push_perf(self.perf, self.queue.now(), kind, self.node, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket_core::{NodeSpec, WorkloadProfile};
    use rocket_stats::Dist;
    use rocket_trace::PerfRollup;

    fn toy_workload(items: u64) -> WorkloadProfile {
        WorkloadProfile {
            name: "toy",
            items,
            file_bytes: 1_000_000,
            item_bytes: 10_000_000,
            parse: Dist::Constant(10e-3),
            preprocess: Some(Dist::Constant(5e-3)),
            compare: Dist::Constant(1e-3),
            postprocess: Dist::Constant(0.0),
            paper_device_slots: 8,
            paper_host_slots: 16,
        }
    }

    fn toy_scenario(items: u64, nodes: usize, slots: usize) -> Scenario {
        let mut s = Scenario::builder()
            .workload(toy_workload(items.max(2)))
            .nodes(nodes, NodeSpec::uniform(1, slots, slots * 2))
            .build();
        // Engine-level tests may drive a data set the builder rejects.
        s.workload.items = items;
        s
    }

    /// The `crates/bench` anchor workload (constant stage times).
    fn bench_workload(items: u64) -> WorkloadProfile {
        WorkloadProfile {
            name: "bench",
            paper_device_slots: 16,
            paper_host_slots: 64,
            ..toy_workload(items)
        }
    }

    /// Stochastic stage times: shard-order bugs that constant stage times
    /// mask (ties everywhere) show up as RNG-stream divergence.
    fn noisy_workload(items: u64) -> WorkloadProfile {
        WorkloadProfile {
            name: "noisy",
            parse: Dist::Uniform {
                lo: 5e-3,
                hi: 15e-3,
            },
            preprocess: Some(Dist::Normal {
                mean: 5e-3,
                std: 1e-3,
            }),
            compare: Dist::Uniform {
                lo: 0.5e-3,
                hi: 1.5e-3,
            },
            postprocess: Dist::Constant(0.1e-3),
            ..bench_workload(items)
        }
    }

    /// Debug covers every field of the report, so string equality is
    /// byte-identical results. `sim_shards` records `K` itself and is
    /// checked, then blanked.
    fn report_bytes(s: &Scenario, shards: usize, threads: usize, perf: &PerfLog) -> String {
        let mut r = run(s, shards, threads, perf);
        assert_eq!(r.sim_shards as usize, shards.min(s.nodes.len()));
        r.sim_shards = 0;
        format!("{r:?}")
    }

    #[test]
    fn shard_ranges_are_contiguous_and_balanced() {
        for (p, k) in [(4, 2), (5, 2), (13, 4), (7, 7), (3, 1)] {
            let ranges = shard_ranges(p, k);
            assert_eq!(ranges.len(), k);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, p);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(w[0].len() >= w[1].len());
                assert!(w[0].len() - w[1].len() <= 1);
            }
        }
    }

    #[test]
    fn window_width_respects_both_lookahead_channels() {
        let off = PerfLog::disabled();
        let cfg = toy_scenario(4, 2, 4);
        let ctx = build_ctx(&cfg, &off, 2);
        let net = secs_to_ns(cfg.net_latency);
        let storage = secs_to_ns(cfg.workload.file_bytes as f64 / cfg.storage_bandwidth)
            + secs_to_ns(cfg.storage_latency);
        assert_eq!(ctx.window_ns, net.min(storage).max(1));
        // A storage-latency-free config must shrink the window to the
        // storage floor, not trust net_latency alone.
        let mut fast_storage = toy_scenario(4, 2, 4);
        fast_storage.storage_latency = 0.0;
        fast_storage.storage_bandwidth = 1e15;
        let ctx2 = build_ctx(&fast_storage, &off, 2);
        assert!(ctx2.window_ns <= secs_to_ns(1e-9).max(1) || ctx2.window_ns < net);
    }

    /// A message scheduled exactly *on* a window boundary must not execute
    /// in that window (windows are half-open) and must execute once the
    /// window advances past it.
    #[test]
    fn boundary_event_lands_in_the_next_window() {
        // items = 0: no root work, so Pull handlers are inert and the
        // queues start empty.
        let off = PerfLog::disabled();
        let cfg = toy_scenario(0, 2, 4);
        let ctx = build_ctx(&cfg, &off, 2);
        let mut shards = build_shards(&cfg, &ctx, 2);
        let win = ctx.window_ns;
        let s = &mut shards[0];
        s.window_end = win;
        let p_in = s.next_prio(0);
        s.queue.schedule_keyed(win - 1, p_in, Ev::Pull { node: 0 });
        let p_on = s.next_prio(0);
        s.queue.schedule_keyed(win, p_on, Ev::Pull { node: 0 });
        s.run_window(&ctx);
        assert_eq!(s.ev_counts[0], 1, "in-window event must run");
        assert_eq!(
            s.queue.peek_time(),
            Some(win),
            "boundary event must wait for the next window"
        );
        s.window_end = 2 * win;
        s.run_window(&ctx);
        assert_eq!(s.ev_counts[0], 2, "boundary event runs in next window");
        assert_eq!(s.queue.peek_time(), None);
    }

    /// Victim rank/select over per-shard bitsets agrees with a linear
    /// filter over global node ids, for every rank, on random bitsets of
    /// assorted densities split unevenly across shards (ranges that cross
    /// word boundaries and shards with an empty tier included).
    #[test]
    fn victim_select_matches_a_linear_filter() {
        let off = PerfLog::disabled();
        let cfg = toy_scenario(0, 200, 4);
        let ctx = build_ctx(&cfg, &off, 3);
        let mut shards = build_shards(&cfg, &ctx, 3);
        let mut rng = SeedSequence::new(7).rng("bits");
        for density in [0u32, 1, 2, 4, 8, 64] {
            for s in &mut shards {
                let len = s.nodes.len();
                for (w, word) in s.any.iter_mut().enumerate() {
                    // AND of `density` random words: each bit set w.p. 2^-density.
                    let mut bits = (0..density).fold(!0u64, |acc, _| acc & rng.next());
                    if len - w * 64 < 64 {
                        bits &= (1u64 << (len - w * 64)) - 1;
                    }
                    *word = bits;
                }
            }
            let sh: Vec<&mut ShardState> = shards.iter_mut().collect();
            let want: Vec<usize> = (0..200)
                .filter(|&g| {
                    let s = &sh[ctx.node_shard[g]];
                    let l = g - s.base;
                    s.any[l / 64] >> (l % 64) & 1 == 1
                })
                .collect();
            assert_eq!(count_victims(&sh, false), want.len(), "density {density}");
            for (k, &g) in want.iter().enumerate() {
                assert_eq!(select_victim(&sh, false, k), g, "density {density}, k {k}");
            }
            let words = &sh[0].any;
            let local: usize = words.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(select_bit(words, local + 3), Err(3));
        }
    }

    /// A compare task costs one event, as on the conductor: with every
    /// item cached on one node, the load pipeline's events are a cost per
    /// item, so the run handles fewer than two events per pair.
    #[test]
    fn a_compared_pair_costs_one_event() {
        let cfg = toy_scenario(32, 1, 64);
        let off = PerfLog::disabled();
        let ctx = build_ctx(&cfg, &off, 1);
        let mut shards = build_shards(&cfg, &ctx, 1);
        run_sequential(&ctx, &mut shards[0], &mut Driver::new(&cfg, &off));
        let s = &shards[0];
        assert_eq!(s.pairs_done, 32 * 31 / 2);
        let events: u64 = s.ev_counts.iter().sum();
        assert!(
            events < 2 * s.pairs_done,
            "{events} events for {} pairs: {:?}",
            s.pairs_done,
            s.ev_counts
        );
    }

    #[test]
    fn sharded_toy_run_matches_sequential_byte_for_byte() {
        let s = toy_scenario(24, 4, 12);
        let off = PerfLog::disabled();
        assert_eq!(report_bytes(&s, 4, 2, &off), report_bytes(&s, 1, 1, &off));
    }

    #[test]
    fn shard_count_beyond_nodes_is_clamped() {
        let r = run(&toy_scenario(12, 2, 16), 64, 0, &PerfLog::disabled());
        assert_eq!(r.sim_shards, 2);
        assert_eq!(r.pairs, 66);
    }

    /// The thread count is a wall-clock knob only: every shard × thread
    /// cell reproduces the sequential report. Two threads make one thread
    /// own several shards at K ≥ 4.
    fn assert_thread_invariant(s: &Scenario, label: &str) {
        let off = PerfLog::disabled();
        let baseline = report_bytes(s, 1, 1, &off);
        for shards in [2usize, 4, 8, 13] {
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    report_bytes(s, shards, threads, &off),
                    baseline,
                    "{label}: K = {shards}, threads = {threads} \
                     diverged from the sequential engine"
                );
            }
        }
    }

    #[test]
    fn four_node_bench_anchor_is_thread_invariant() {
        let s = Scenario::builder()
            .workload(bench_workload(48))
            .nodes(4, NodeSpec::uniform(1, 16, 32))
            .build();
        assert_thread_invariant(&s, "four_nodes_n48_distcache");
    }

    #[test]
    fn heterogeneous_noisy_cluster_is_thread_invariant() {
        // 13 nodes of three shapes: shard counts {2, 4, 8, 13} all split
        // this cluster unevenly, and 13 shards means one node per shard.
        let mut b = Scenario::builder().workload(noisy_workload(64));
        for i in 0..13usize {
            b = b.node(match i % 3 {
                0 => NodeSpec::uniform(1, 8, 16),
                1 => NodeSpec::uniform(2, 12, 24),
                _ => NodeSpec::uniform(4, 16, 32),
            });
        }
        let mut s = b.build();
        s.net_latency = 200e-6; // cloud-scale lookahead, many short windows
        assert_thread_invariant(&s, "heterogeneous_noisy_13_nodes");
    }

    #[test]
    fn record_stream_is_thread_invariant() {
        // Same shard count, different worker thread counts: the fold order
        // is shard order then driver, so both the report and the record
        // stream must be byte-identical.
        let s = Scenario::builder()
            .workload(noisy_workload(32))
            .nodes(4, NodeSpec::uniform(1, 8, 16))
            .build();
        let record = |threads: usize| {
            let perf = PerfLog::enabled();
            let report = report_bytes(&s, 4, threads, &perf);
            (report, perf.take())
        };
        let (res1, rec1) = record(1);
        let (res4, rec4) = record(4);
        assert_eq!(res1, res4, "results diverged across thread counts");
        assert!(!rec1.is_empty());
        assert_eq!(
            format!("{rec1:?}"),
            format!("{rec4:?}"),
            "record stream diverged across thread counts"
        );
        // The rollup (percentiles included) is therefore byte-stable too.
        assert_eq!(
            PerfRollup::from_records(&rec1).to_json(),
            PerfRollup::from_records(&rec4).to_json()
        );
    }
}
