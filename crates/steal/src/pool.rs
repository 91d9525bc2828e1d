//! Threaded hierarchical work-stealing pool over `crossbeam-deque`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crossbeam::deque::{Steal, Stealer, Worker as Deque};

use crate::block::{Block, Pair};

/// Maps each worker to the node it lives on; stealing prefers same-node
/// victims (§4.2: "workers first attempt to steal from a worker on the same
/// node before selecting a remote node").
#[derive(Debug, Clone)]
pub struct WorkerTopology {
    /// `node_of[w]` = node id of worker `w`.
    pub node_of: Vec<usize>,
}

impl WorkerTopology {
    /// `nodes` nodes × `workers_per_node` workers each (the paper launches
    /// one Constellation worker per GPU).
    pub fn uniform(nodes: usize, workers_per_node: usize) -> Self {
        let node_of = (0..nodes)
            .flat_map(|n| std::iter::repeat_n(n, workers_per_node))
            .collect();
        Self { node_of }
    }

    /// A single node with `workers` workers.
    pub fn single_node(workers: usize) -> Self {
        Self::uniform(1, workers)
    }

    /// Total workers.
    pub fn workers(&self) -> usize {
        self.node_of.len()
    }
}

/// Same-node steal attempts before trying a remote victim.
const LOCAL_ATTEMPTS: usize = 2;

/// Pool tuning knobs.
#[derive(Debug, Clone)]
pub struct StealPoolConfig {
    /// Blocks with at most this many pairs are processed as leaves.
    pub leaf_pairs: u64,
    /// Seed for victim selection.
    pub seed: u64,
    /// Deterministic assignment mode: pre-split the pair triangle into at
    /// least one block per worker, deal the blocks out round-robin, and
    /// disable stealing. Work distribution (and therefore
    /// [`StealStats::pairs_per_worker`]) becomes a pure function of
    /// `(n, workers)` instead of depending on thread timing — what
    /// reproducibility-sensitive runs (e.g. transport-equivalence tests)
    /// need. Load balance is static, so leave this off for performance.
    pub static_partition: bool,
}

impl Default for StealPoolConfig {
    fn default() -> Self {
        Self {
            leaf_pairs: 1,
            seed: 0x9E3779B97F4A7C15,
            static_partition: false,
        }
    }
}

/// Execution statistics of one pool run.
#[derive(Debug, Clone, Default)]
pub struct StealStats {
    /// Pairs processed by each worker.
    pub pairs_per_worker: Vec<u64>,
    /// Successful steals from same-node victims.
    pub local_steals: u64,
    /// Successful steals from remote-node victims.
    pub remote_steals: u64,
}

impl StealStats {
    /// Total pairs processed.
    pub fn total_pairs(&self) -> u64 {
        self.pairs_per_worker.iter().sum()
    }

    /// Ratio of the busiest worker's share to a perfect split (1.0 = ideal).
    pub fn imbalance(&self) -> f64 {
        let total = self.total_pairs();
        if total == 0 || self.pairs_per_worker.is_empty() {
            return 1.0;
        }
        let max = *self.pairs_per_worker.iter().max().unwrap() as f64;
        let ideal = total as f64 / self.pairs_per_worker.len() as f64;
        max / ideal
    }
}

/// The work-stealing pool. Stateless: `run` owns its threads for one
/// workload and joins them before returning.
pub struct StealPool;

impl StealPool {
    /// Runs `tasks` independent index-addressed tasks on up to `threads`
    /// worker threads (work-sharing over an atomic cursor), joining them
    /// before returning.
    ///
    /// This is the pool's coarse-grained sibling of [`StealPool::run`]:
    /// replication drivers use it to fan whole simulation runs out across
    /// cores. Each index is claimed by exactly one worker; the assignment
    /// of indices to threads is racy, so callers needing determinism must
    /// make each task independent and combine results by index afterwards.
    pub fn run_tasks<F>(tasks: usize, threads: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let threads = threads.max(1).min(tasks.max(1));
        if tasks == 0 {
            return;
        }
        if threads == 1 {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        let cursor = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                    if i >= tasks {
                        break;
                    }
                    f(i);
                });
            }
        });
    }

    /// Runs `tasks` index-addressed tasks per *round* on `threads` threads
    /// — the calling thread plus `threads − 1` persistent workers — and
    /// calls `between()` on the calling thread after every round. Rounds
    /// repeat until `between` returns `false`.
    ///
    /// This is the barrier-style sibling of [`StealPool::run_tasks`] for
    /// lock-step algorithms (e.g. conservative time-window simulation):
    /// `run_tasks` spawns and joins threads per call, which is far too
    /// expensive to do once per window, so `run_rounds` keeps the workers
    /// alive across rounds. Task `i` runs on thread `i % threads` in every
    /// round (the caller is thread 0), so whatever state task `i` touches
    /// stays in one core's cache and is never contended. `between` runs
    /// after every thread has finished the round and before any is released
    /// into the next, so it has exclusive access to whatever state the
    /// tasks touched.
    ///
    /// A panic in `task` or `between` ends the rounds on every thread and
    /// propagates out of this call with its original payload.
    pub fn run_rounds<T, B>(tasks: usize, threads: usize, task: T, mut between: B)
    where
        T: Fn(usize) + Sync,
        B: FnMut() -> bool,
    {
        let threads = threads.max(1).min(tasks.max(1));
        if threads == 1 {
            loop {
                for i in 0..tasks {
                    task(i);
                }
                if !between() {
                    return;
                }
            }
        }
        let sync = RoundSync::default();
        let workers = (threads - 1) as u64;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads)
                .map(|w| {
                    let (sync, task) = (&sync, &task);
                    scope.spawn(move || {
                        let _leave = LeaveOnDrop(&sync.left);
                        for round in 1u64.. {
                            if !sync.wait(|| sync.released.load(Ordering::Acquire) >= round) {
                                return;
                            }
                            for i in (w..tasks).step_by(threads) {
                                task(i);
                            }
                            sync.finished.fetch_add(1, Ordering::Release);
                        }
                    })
                })
                .collect();
            {
                let _leave = LeaveOnDrop(&sync.left);
                for round in 1u64.. {
                    sync.released.store(round, Ordering::Release);
                    for i in (0..tasks).step_by(threads) {
                        task(i);
                    }
                    let gathered =
                        sync.wait(|| sync.finished.load(Ordering::Acquire) == round * workers);
                    if !gathered || !between() {
                        break;
                    }
                }
            }
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }

    /// Processes every pair of `n` items, calling `on_pair(worker, pair)`
    /// from pool worker threads: [`StealPool::run_leaves`] one pair at a
    /// time.
    pub fn run<F>(
        n: u64,
        topology: &WorkerTopology,
        config: &StealPoolConfig,
        on_pair: F,
    ) -> StealStats
    where
        F: Fn(usize, Pair) + Sync,
    {
        Self::run_leaves(n, topology, config, |worker, leaf| {
            for pair in leaf.pairs() {
                on_pair(worker, pair);
            }
        })
    }

    /// Processes every pair of `n` items, calling `on_leaf(worker, leaf)`
    /// once per leaf block (at most [`StealPoolConfig::leaf_pairs`] pairs)
    /// from pool worker threads. `on_leaf` may block (that is how the
    /// concurrent-job limit applies back-pressure to the scheduler).
    pub fn run_leaves<F>(
        n: u64,
        topology: &WorkerTopology,
        config: &StealPoolConfig,
        on_leaf: F,
    ) -> StealStats
    where
        F: Fn(usize, Block) + Sync,
    {
        let workers = topology.workers();
        assert!(workers > 0, "pool needs at least one worker");
        let total = n * n.saturating_sub(1) / 2;
        if total == 0 {
            return StealStats {
                pairs_per_worker: vec![0; workers],
                ..Default::default()
            };
        }

        let deques: Vec<Deque<Block>> = (0..workers).map(|_| Deque::new_lifo()).collect();
        let stealers: Vec<Stealer<Block>> = deques.iter().map(Deque::stealer).collect();
        if config.static_partition {
            for (i, block) in partition(n, workers).into_iter().enumerate() {
                deques[i % workers].push(block);
            }
        } else {
            deques[0].push(Block::root(n));
        }

        let processed = AtomicU64::new(0);
        let local_steals = AtomicU64::new(0);
        let remote_steals = AtomicU64::new(0);
        let per_worker: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();

        let run_worker = |worker: usize, deque: Deque<Block>| {
            let mut rng = VictimRng(config.seed ^ (worker as u64).wrapping_mul(0x9E3779B97F4A7C15));
            let my_node = topology.node_of[worker];
            let siblings: Vec<usize> = (0..workers)
                .filter(|&w| w != worker && topology.node_of[w] == my_node)
                .collect();
            let strangers: Vec<usize> = (0..workers)
                .filter(|&w| topology.node_of[w] != my_node)
                .collect();
            let mut idle_spins = 0u32;
            loop {
                if let Some(block) = deque.pop() {
                    idle_spins = 0;
                    let done = block.count();
                    if done <= config.leaf_pairs {
                        on_leaf(worker, block);
                        per_worker[worker].fetch_add(done, Ordering::Relaxed);
                        processed.fetch_add(done, Ordering::Relaxed);
                    } else {
                        for child in block.split() {
                            deque.push(child);
                        }
                    }
                    continue;
                }
                if config.static_partition {
                    // Static assignment: an empty deque means this worker
                    // is done — nobody steals, nobody donates.
                    break;
                }
                // Monotonic progress counter: a stale Relaxed read only
                // delays this exit check by one loop iteration, it can
                // never un-finish the pool.
                if processed.load(Ordering::Relaxed) >= total {
                    break;
                }
                // Hierarchical steal: same node first, then remote.
                let mut stolen = false;
                for _ in 0..LOCAL_ATTEMPTS {
                    if siblings.is_empty() {
                        break;
                    }
                    let victim = siblings[rng.below(siblings.len())];
                    if let Steal::Success(block) = stealers[victim].steal() {
                        deque.push(block);
                        local_steals.fetch_add(1, Ordering::Relaxed);
                        stolen = true;
                        break;
                    }
                }
                if !stolen && !strangers.is_empty() {
                    let victim = strangers[rng.below(strangers.len())];
                    if let Steal::Success(block) = stealers[victim].steal() {
                        deque.push(block);
                        remote_steals.fetch_add(1, Ordering::Relaxed);
                        stolen = true;
                    }
                }
                if !stolen {
                    idle_spins += 1;
                    if idle_spins > 64 {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "idle backoff paces the steal loop; which pairs run \
                                      where is decided by the deques, not by wake-up timing"
                        )]
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        };

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (worker, deque) in deques.into_iter().enumerate() {
                let run_worker = &run_worker;
                handles.push(scope.spawn(move || run_worker(worker, deque)));
            }
            for h in handles {
                h.join().expect("pool worker panicked");
            }
        });

        StealStats {
            pairs_per_worker: per_worker
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            local_steals: local_steals.load(Ordering::Relaxed),
            remote_steals: remote_steals.load(Ordering::Relaxed),
        }
    }
}

/// Polls of a round's wait loop before it starts yielding the core.
const WAIT_POLLS: u32 = 10_000;

/// What the threads of one [`StealPool::run_rounds`] call synchronise on:
/// the caller *releases* round `r` by storing `r`, each worker reports a
/// *finished* round by incrementing a running total, and any thread that
/// leaves — the caller once `between` says stop, anyone by panicking —
/// raises `left` so nobody waits for it.
///
/// `std::sync::Barrier` parks threads in the kernel, which costs tens of
/// microseconds per crossing — longer than an entire simulation window —
/// so waiting is a poll. It is a plain load with no `spin_loop` hint: the
/// bound before yielding is counted in polls, and a hinted poll measured
/// ≈14 ns on the two-thread virtualised host this was sized on, so a
/// waiter held its core ≈140 µs before giving it to the thread it was
/// waiting for (4 threads on 2 cores: 388 µs a round hinted, 23 µs bare).
/// Past [`WAIT_POLLS`] the loop yields, so more threads than cores still
/// make progress.
#[derive(Default)]
struct RoundSync {
    released: AtomicU64,
    finished: AtomicU64,
    left: AtomicBool,
}

impl RoundSync {
    /// Waits until `ready()`; `false` means a thread left first.
    fn wait(&self, ready: impl Fn() -> bool) -> bool {
        let mut polls = 0u32;
        while !ready() {
            if self.left.load(Ordering::Acquire) {
                return false;
            }
            if polls < WAIT_POLLS {
                polls += 1;
            } else {
                std::thread::yield_now();
            }
        }
        true
    }
}

/// Raises a [`RoundSync`]'s `left` flag when its thread leaves the rounds,
/// by return or by unwinding.
struct LeaveOnDrop<'a>(&'a AtomicBool);

impl Drop for LeaveOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// A worker's victim chooser: a splitmix64 stream, reduced into `0..len`
/// by multiply-shift. It is private rather than `rocket_stats::Xoshiro256`
/// because a `rocket-stats` edge on this crate would fail the benchmark's
/// `--locked` build: `benchmark/Cargo.lock` pins this crate's dependencies.
struct VictimRng(u64);

impl VictimRng {
    fn below(&mut self, len: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((u128::from(z) * len as u128) >> 64) as usize
    }
}

/// Splits the pair triangle of `n` items into at least `workers` non-empty
/// blocks (fewer when the triangle is too small to split that far), in a
/// deterministic breadth-first order.
fn partition(n: u64, workers: usize) -> Vec<Block> {
    let mut blocks = vec![Block::root(n)];
    while blocks.len() < workers {
        // Split the largest block; ties broken by position (deterministic).
        let pos = match blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.count() > 1)
            .max_by_key(|(i, b)| (b.count(), usize::MAX - i))
        {
            Some((i, _)) => i,
            None => break, // nothing left to split
        };
        let children = blocks[pos].split();
        if children.is_empty() {
            break;
        }
        blocks.splice(pos..=pos, children);
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket_sanitize::Mutex;
    use std::collections::HashSet;
    use std::sync::OnceLock;
    use std::thread::ThreadId;

    #[test]
    fn partition_covers_all_pairs_disjointly() {
        for (n, workers) in [(10u64, 4usize), (40, 8), (7, 16), (2, 3), (100, 1)] {
            let blocks = partition(n, workers);
            let mut seen = HashSet::new();
            for b in &blocks {
                assert!(b.count() > 0, "empty block for n={n}");
                for p in b.pairs() {
                    assert!(seen.insert(p), "pair {p:?} covered twice (n={n})");
                }
            }
            assert_eq!(seen.len() as u64, n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn static_partition_is_deterministic_and_steal_free() {
        let topology = WorkerTopology::uniform(2, 2);
        let config = StealPoolConfig {
            leaf_pairs: 4,
            static_partition: true,
            ..Default::default()
        };
        let run = || StealPool::run(32, &topology, &config, |_, _| {});
        let first = run();
        assert_eq!(first.total_pairs(), 32 * 31 / 2);
        assert_eq!(first.local_steals + first.remote_steals, 0);
        // Every worker got a share, and re-runs reproduce it exactly.
        assert!(first.pairs_per_worker.iter().all(|&c| c > 0));
        for _ in 0..5 {
            assert_eq!(run().pairs_per_worker, first.pairs_per_worker);
        }
    }

    #[test]
    fn all_pairs_processed_exactly_once() {
        let seen = Mutex::named("seen", HashSet::new());
        let n = 40u64;
        let stats = StealPool::run(
            n,
            &WorkerTopology::single_node(4),
            &StealPoolConfig::default(),
            |_, pair| {
                assert!(seen.lock().insert(pair), "duplicate pair {pair:?}");
            },
        );
        assert_eq!(seen.lock().len() as u64, n * (n - 1) / 2);
        assert_eq!(stats.total_pairs(), n * (n - 1) / 2);
    }

    #[test]
    fn single_worker_works() {
        let count = AtomicU64::new(0);
        let stats = StealPool::run(
            10,
            &WorkerTopology::single_node(1),
            &StealPoolConfig::default(),
            |w, _| {
                assert_eq!(w, 0);
                count.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 45);
        assert_eq!(stats.local_steals + stats.remote_steals, 0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for n in [0u64, 1] {
            let stats = StealPool::run(
                n,
                &WorkerTopology::single_node(2),
                &StealPoolConfig::default(),
                |_, _| panic!("no pairs expected"),
            );
            assert_eq!(stats.total_pairs(), 0);
        }
        let stats = StealPool::run(
            2,
            &WorkerTopology::single_node(2),
            &StealPoolConfig::default(),
            |_, pair| assert_eq!(pair, Pair { left: 0, right: 1 }),
        );
        assert_eq!(stats.total_pairs(), 1);
    }

    #[test]
    fn work_is_shared_across_workers() {
        let n = 128u64;
        let stats = StealPool::run(
            n,
            &WorkerTopology::single_node(4),
            &StealPoolConfig {
                leaf_pairs: 16,
                ..Default::default()
            },
            |_, _| {
                // Sleep (not spin): on single-core machines this forces the
                // scheduler to rotate workers so stealing can engage.
                std::thread::sleep(std::time::Duration::from_micros(20));
            },
        );
        let active = stats.pairs_per_worker.iter().filter(|&&c| c > 0).count();
        assert!(
            active >= 2,
            "only {active} workers participated: {:?}",
            stats.pairs_per_worker
        );
        assert!(stats.local_steals + stats.remote_steals > 0);
    }

    #[test]
    fn multi_node_topology_prefers_local_steals() {
        let n = 200u64;
        let stats = StealPool::run(
            n,
            &WorkerTopology::uniform(2, 2),
            &StealPoolConfig {
                leaf_pairs: 8,
                ..Default::default()
            },
            |_, _| {
                std::thread::sleep(std::time::Duration::from_micros(10));
            },
        );
        assert_eq!(stats.total_pairs(), n * (n - 1) / 2);
        // Both nodes' workers processed something.
        assert!(stats.pairs_per_worker[0] + stats.pairs_per_worker[1] > 0);
        assert!(stats.pairs_per_worker[2] + stats.pairs_per_worker[3] > 0);
    }

    #[test]
    fn leaf_batching_respected() {
        let seen = AtomicU64::new(0);
        StealPool::run(
            32,
            &WorkerTopology::single_node(2),
            &StealPoolConfig {
                leaf_pairs: 64,
                ..Default::default()
            },
            |_, _| {
                seen.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(seen.load(Ordering::Relaxed), 32 * 31 / 2);
    }

    /// Every round must see all task indices exactly once, each on the
    /// thread that ran it in round one, and `between` must run on the
    /// caller with every thread done (exclusive access).
    fn check_run_rounds(tasks: usize, threads: usize) {
        let rounds = 5usize;
        let hits: Vec<AtomicU64> = (0..tasks).map(|_| AtomicU64::new(0)).collect();
        let owners: Vec<OnceLock<ThreadId>> = (0..tasks).map(|_| OnceLock::new()).collect();
        let caller = std::thread::current().id();
        let mut round = 0usize;
        StealPool::run_rounds(
            tasks,
            threads,
            |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                let me = std::thread::current().id();
                let owner = *owners[i].get_or_init(|| me);
                assert_eq!(owner, me, "task {i} changed threads");
            },
            || {
                assert_eq!(std::thread::current().id(), caller);
                round += 1;
                // Exclusive: every task has run exactly `round` times.
                for h in &hits {
                    assert_eq!(h.load(Ordering::Relaxed), round as u64);
                }
                round < rounds
            },
        );
        assert_eq!(round, rounds);
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), rounds as u64);
        }
        // Fixed stride: tasks `i` and `j` share a thread iff they are
        // congruent modulo the effective thread count; the caller is
        // thread 0.
        let owners: Vec<ThreadId> = owners
            .into_iter()
            .map(|o| o.into_inner().expect("every task ran"))
            .collect();
        let threads = threads.clamp(1, tasks.max(1));
        for (i, owner) in owners.iter().enumerate() {
            assert_eq!(*owner == caller, i % threads == 0, "task {i}");
            assert_eq!(*owner, owners[i % threads], "task {i}");
        }
        let distinct: HashSet<ThreadId> = owners.into_iter().collect();
        assert_eq!(distinct.len(), threads.min(tasks));
    }

    #[test]
    fn run_rounds_inline_single_thread() {
        check_run_rounds(4, 1);
    }

    #[test]
    fn run_rounds_parallel() {
        check_run_rounds(8, 4);
        check_run_rounds(13, 2); // one thread owns several tasks
        check_run_rounds(3, 8); // more threads than tasks
        check_run_rounds(0, 4); // nothing to run: only `between`
    }

    #[test]
    fn run_rounds_oversubscribed_host_makes_progress() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        check_run_rounds(4 * cores, 4 * cores);
    }

    #[test]
    fn run_rounds_zero_tasks_terminates() {
        let mut calls = 0;
        StealPool::run_rounds(
            0,
            4,
            |_| panic!("no tasks"),
            || {
                calls += 1;
                calls < 3
            },
        );
        assert_eq!(calls, 3);
    }

    /// Runs `f` on a helper thread and re-raises its panic here; a `f`
    /// that neither returns nor panics within the timeout fails the test
    /// instead of hanging the suite.
    fn panics_within_timeout(f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let helper = std::thread::spawn(move || {
            let _done = tx; // dropped on return and on unwind
            f();
        });
        match rx.recv_timeout(std::time::Duration::from_secs(20)) {
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {}
            other => panic!("run_rounds hung instead of propagating: {other:?}"),
        }
        if let Err(panic) = helper.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// Four tasks on two threads, the task at `bad` panicking in round two.
    fn panic_in_task(bad: usize) {
        panics_within_timeout(move || {
            let round = AtomicU64::new(0);
            StealPool::run_rounds(
                4,
                2,
                |i| {
                    if i == bad && round.load(Ordering::Relaxed) == 1 {
                        panic!("task {i} failed");
                    }
                },
                || {
                    round.fetch_add(1, Ordering::Relaxed);
                    true
                },
            );
        });
    }

    #[test]
    #[should_panic(expected = "task 2 failed")]
    fn run_rounds_propagates_a_panic_in_a_caller_owned_task() {
        panic_in_task(2);
    }

    #[test]
    #[should_panic(expected = "task 3 failed")]
    fn run_rounds_propagates_a_panic_in_a_worker_owned_task() {
        panic_in_task(3);
    }

    #[test]
    #[should_panic(expected = "simulation stalled")]
    fn run_rounds_propagates_a_panic_in_between() {
        panics_within_timeout(|| {
            let mut rounds = 0;
            StealPool::run_rounds(
                4,
                2,
                |_| {},
                || {
                    rounds += 1;
                    assert!(rounds < 3, "simulation stalled");
                    true
                },
            );
        });
    }

    #[test]
    fn imbalance_metric() {
        let stats = StealStats {
            pairs_per_worker: vec![30, 10],
            ..Default::default()
        };
        assert!((stats.imbalance() - 1.5).abs() < 1e-12);
        let perfect = StealStats {
            pairs_per_worker: vec![20, 20],
            ..Default::default()
        };
        assert!((perfect.imbalance() - 1.0).abs() < 1e-12);
    }
}
