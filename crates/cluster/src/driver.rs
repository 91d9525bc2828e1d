//! The driver side: [`ClusterBackend`], a fault-tolerant [`Backend`]
//! over worker processes.
//!
//! The backend owns the driver endpoint of a cluster mesh (rank 0; the
//! workers are ranks 1..p) and a dispatcher thread that multiplexes any
//! number of concurrent [`Backend::run`] calls over the workers — which
//! is exactly what a parallel `Study` produces. Each `run` call encodes
//! the scenario as a [`ToWorker::Job`] frame, queues it, and blocks until
//! the dispatcher folds the worker's [`ToDriver::Done`] report back to it.
//!
//! The dispatcher is event-driven: its one wait point is the transport
//! inbox, and everything that creates work arrives there. Worker frames
//! do by nature; `run` (after queueing its request) and `Drop` (after
//! raising the shutdown flag) send a self-addressed empty message — a
//! wake token, recognisable by its `from` rank, which the transport sets
//! and a worker therefore cannot forge. The block is bounded by whatever
//! is actually due next — a ping, a liveness expiry, a job timeout — so
//! no step of a job waits on a timer, and an idle cluster wakes the
//! dispatcher once per `ping_interval` and no more. (A token lost by a
//! faulty transport delays its request to that next wake; it cannot
//! strand it.)
//!
//! Failure handling, in the order the dispatcher applies it each time it
//! wakes:
//!
//! 1. **Positive disconnects** — [`Transport::peer_alive`] turning false
//!    (a reader thread saw the connection die) loses the worker at the
//!    next wake: at once under traffic, within `ping_interval` on a quiet
//!    mesh, and either way well before the heartbeat deadline. A failed
//!    `send` (job or ping) loses the worker immediately.
//! 2. **Heartbeats** — [`rocket_comm::Liveness`] pings every worker each
//!    `ping_interval`; a worker silent past `liveness_timeout` is lost
//!    even if its TCP connection still looks healthy (`kill -9`,
//!    network partition).
//! 3. **Re-dealing** — a lost worker's unacknowledged job returns to the
//!    queue and the same encoded frame is re-sent to a surviving worker.
//!    Job ids make delivery idempotent: a late duplicate report for a
//!    completed id is dropped, never double-counted.
//! 4. **Job timeouts** — a job outstanding past `job_timeout` is re-dealt
//!    too; the original worker keeps its busy mark (a stuck worker gets
//!    no new work) until it reports something or is lost.
//! 5. **Degradation** — a report whose job needed more than one dispatch,
//!    or that completed with fewer live workers than the quorum, is
//!    flagged [`RunReport::degraded`]. Only when *every* worker is gone
//!    do outstanding runs fail, with [`RocketError::WorkerLost`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use rocket_comm::wire::Wire;
use rocket_comm::{Incoming, Liveness, RecvError, SocketTransport, Transport};
use rocket_core::{Backend, RocketError, RunReport, Scenario};
use rocket_sanitize::Mutex;

use crate::protocol::{ToDriver, ToWorker, DRIVER_RANK, PROTOCOL_VERSION};

/// Tuning knobs of the [`ClusterBackend`] dispatcher.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Heartbeat ping cadence per worker — and, because pings are the
    /// only thing due on a quiet mesh, the longest the dispatcher sleeps:
    /// a dropped connection nobody was talking to is noticed within it.
    pub ping_interval: Duration,
    /// Silence after which a worker is declared lost. Must outlast
    /// `ping_interval`.
    pub liveness_timeout: Duration,
    /// Time a single job may stay outstanding on one worker before it is
    /// re-dealt; the dispatcher wakes exactly when the earliest expires.
    pub job_timeout: Duration,
    /// Minimum live workers for non-degraded reports; `None` means a
    /// majority of the configured workers. Falling below the quorum does
    /// not stop the sweep — completions are flagged degraded instead.
    pub quorum: Option<usize>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            ping_interval: Duration::from_millis(200),
            liveness_timeout: Duration::from_secs(2),
            job_timeout: Duration::from_secs(60),
            quorum: None,
        }
    }
}

/// Noteworthy dispatcher occurrences, in order (for reports and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A worker completed the handshake.
    WorkerReady {
        /// The worker's rank.
        worker: usize,
    },
    /// A worker was declared lost.
    WorkerLost {
        /// The worker's rank.
        worker: usize,
        /// What betrayed the loss (disconnect, heartbeat silence…).
        cause: String,
        /// The job re-queued from the worker, if it was running one.
        requeued: Option<u64>,
    },
    /// A previously dispatched job was sent to another worker.
    Redealt {
        /// The job's identifier.
        job: u64,
        /// Dispatch count including this one (2 = first re-deal).
        attempt: u32,
        /// The worker now running it.
        to: usize,
    },
    /// A late report for an already-completed job was discarded.
    DuplicateDropped {
        /// The completed job.
        job: u64,
        /// The worker whose report arrived late.
        from: usize,
    },
    /// A job stayed outstanding past the timeout and was re-queued.
    JobTimedOut {
        /// The job's identifier.
        job: u64,
        /// The worker it was outstanding on.
        worker: usize,
    },
    /// Live workers fell below the quorum; reports are degraded from here.
    BelowQuorum {
        /// Workers still live.
        live: usize,
        /// The configured (or majority) quorum.
        quorum: usize,
    },
}

/// A [`Backend`] that executes scenarios on worker processes over a
/// cluster transport, surviving worker loss. See the module docs for the
/// failure semantics.
pub struct ClusterBackend {
    jobs_tx: Sender<JobRequest>,
    /// The endpoint the dispatcher blocks on; held here only to wake it.
    transport: Arc<dyn Transport>,
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    workers: usize,
}

struct Shared {
    next_id: AtomicU64,
    events: Mutex<Vec<ClusterEvent>>,
}

struct JobRequest {
    id: u64,
    /// The encoded [`ToWorker::Job`] frame.
    frame: Bytes,
    reply: Sender<Result<RunReport, RocketError>>,
}

impl ClusterBackend {
    /// Wraps an established driver endpoint (rank 0 of a mesh whose other
    /// ranks run [`crate::serve`]) in a fault-tolerant backend.
    pub fn over(transport: Box<dyn Transport>, opts: ClusterOptions) -> Result<Self, RocketError> {
        if transport.node() != DRIVER_RANK {
            return Err(RocketError::Config(format!(
                "the driver must be rank {DRIVER_RANK}, endpoint has rank {}",
                transport.node()
            )));
        }
        let workers = transport.cluster_size().saturating_sub(1);
        if workers == 0 {
            return Err(RocketError::Config(
                "a cluster backend needs at least one worker".into(),
            ));
        }
        if opts.liveness_timeout <= opts.ping_interval {
            return Err(RocketError::Config(
                "liveness_timeout must outlast ping_interval".into(),
            ));
        }
        let shared = Arc::new(Shared {
            next_id: AtomicU64::new(1),
            events: Mutex::named("events", Vec::new()),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let (jobs_tx, jobs_rx) = unbounded();
        let transport: Arc<dyn Transport> = Arc::from(transport);
        let dispatcher = {
            let transport = Arc::clone(&transport);
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("rocket-cluster-driver".into())
                .spawn(move || Dispatcher::new(transport, opts, shared, shutdown, jobs_rx).run())
                .map_err(|e| RocketError::Config(format!("spawn dispatcher: {e}")))?
        };
        Ok(Self {
            jobs_tx,
            transport,
            shared,
            dispatcher: Some(dispatcher),
            shutdown,
            workers,
        })
    }

    /// Joins a socket mesh as the driver: binds `addrs[0]`, connects to
    /// every worker process (each of which called
    /// [`SocketTransport::join`] with its own rank — the `rocket-node
    /// --serve` entry point), and wraps the endpoint via
    /// [`ClusterBackend::over`].
    pub fn join(addrs: &[SocketAddr], opts: ClusterOptions) -> Result<Self, RocketError> {
        let transport = SocketTransport::join(DRIVER_RANK, addrs)
            .map_err(|e| RocketError::Config(format!("joining the cluster mesh failed: {e}")))?;
        Self::over(Box::new(transport), opts)
    }

    /// Number of workers the mesh was built with (live or not).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Wakes the dispatcher out of its transport wait with a
    /// self-addressed empty message (self-sends are delivered in memory).
    /// Best effort: a dispatcher that never sees the token still wakes at
    /// its next deadline.
    fn wake(&self) {
        let _ = self.transport.send(DRIVER_RANK, Bytes::new());
    }

    /// Everything noteworthy the dispatcher has recorded so far.
    pub fn events(&self) -> Vec<ClusterEvent> {
        self.shared.events.lock().clone()
    }

    /// Ranks of workers declared lost so far.
    pub fn lost_workers(&self) -> Vec<usize> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::WorkerLost { worker, .. } => Some(*worker),
                _ => None,
            })
            .collect()
    }

    /// One-line summary of the fault history (for `StudyReport` notes).
    pub fn fault_summary(&self) -> String {
        let events = self.events();
        let lost: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::WorkerLost { worker, .. } => Some(*worker),
                _ => None,
            })
            .collect();
        let redeals = events
            .iter()
            .filter(|e| matches!(e, ClusterEvent::Redealt { .. }))
            .count();
        let duplicates = events
            .iter()
            .filter(|e| matches!(e, ClusterEvent::DuplicateDropped { .. }))
            .count();
        if lost.is_empty() && redeals == 0 && duplicates == 0 {
            format!("cluster: {} workers, no faults", self.workers)
        } else {
            format!(
                "cluster: {} workers, lost {:?}, {} job(s) re-dealt, {} duplicate report(s) dropped",
                self.workers, lost, redeals, duplicates
            )
        }
    }
}

impl Backend for ClusterBackend {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn run(&self, scenario: &Scenario) -> Result<RunReport, RocketError> {
        scenario.validate().map_err(RocketError::Config)?;
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        // Encoded once, here on the caller's thread; the dispatcher only
        // ever forwards the buffer.
        let frame = ToWorker::Job {
            id,
            scenario: scenario.clone(),
        }
        .to_bytes();
        let (reply, result) = unbounded();
        self.jobs_tx
            .send(JobRequest { id, frame, reply })
            .map_err(|_| RocketError::WorkerLost {
                worker: DRIVER_RANK,
                cause: "cluster dispatcher is shut down".into(),
            })?;
        self.wake();
        result.recv().unwrap_or_else(|_| {
            Err(RocketError::WorkerLost {
                worker: DRIVER_RANK,
                cause: "cluster dispatcher exited before the job completed".into(),
            })
        })
    }
}

impl Drop for ClusterBackend {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// One outstanding `run` call inside the dispatcher.
struct Inflight {
    /// The encoded job frame; a re-deal resends the same buffer.
    frame: Bytes,
    reply: Sender<Result<RunReport, RocketError>>,
    /// Dispatches so far (1 = first send; >1 = re-dealt).
    attempts: u32,
    /// The worker currently responsible, if dispatched.
    assigned_to: Option<usize>,
    deadline: Instant,
}

struct Dispatcher {
    transport: Arc<dyn Transport>,
    opts: ClusterOptions,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    jobs_rx: Receiver<JobRequest>,
    workers: usize,
    quorum: usize,
    liveness: Liveness,
    inflight: HashMap<u64, Inflight>,
    /// Job ids waiting for a worker.
    pending: VecDeque<u64>,
    /// Workers that are handshaken and idle.
    ready: HashSet<usize>,
    /// Worker → job it is (believed to be) running.
    busy: HashMap<usize, u64>,
    /// Worker → jobs dealt to it so far (placement balance).
    dealt: HashMap<usize, u64>,
    lost: HashSet<usize>,
    /// Set once every worker is gone: `(last worker, cause)`.
    all_lost: Option<(usize, String)>,
    below_quorum_reported: bool,
    nonce: u64,
}

impl Dispatcher {
    fn new(
        transport: Arc<dyn Transport>,
        opts: ClusterOptions,
        shared: Arc<Shared>,
        shutdown: Arc<AtomicBool>,
        jobs_rx: Receiver<JobRequest>,
    ) -> Self {
        let workers = transport.cluster_size().saturating_sub(1);
        let quorum = opts.quorum.unwrap_or(workers / 2 + 1).max(1);
        let liveness = Liveness::new(
            1..=workers,
            opts.ping_interval,
            opts.liveness_timeout,
            Instant::now(),
        );
        Self {
            transport,
            opts,
            shared,
            shutdown,
            jobs_rx,
            workers,
            quorum,
            liveness,
            inflight: HashMap::new(),
            pending: VecDeque::new(),
            ready: HashSet::new(),
            busy: HashMap::new(),
            dealt: HashMap::new(),
            lost: HashSet::new(),
            all_lost: None,
            below_quorum_reported: false,
            nonce: 0,
        }
    }

    fn run(mut self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            self.pump_transport();
            self.ingest_requests();
            let now = Instant::now();
            self.detect_disconnects();
            self.heartbeat(now);
            self.requeue_timed_out(now);
            self.dispatch(now);
        }
        // Graceful exit: tell surviving workers to stop, fail anything
        // still outstanding.
        for w in 1..=self.workers {
            if !self.lost.contains(&w) {
                let _ = self.transport.send(w, ToWorker::Shutdown.to_bytes());
            }
        }
        for (_, job) in self.inflight.drain() {
            let _ = job.reply.send(Err(RocketError::WorkerLost {
                worker: DRIVER_RANK,
                cause: "cluster backend dropped with the job outstanding".into(),
            }));
        }
    }

    fn event(&self, e: ClusterEvent) {
        self.shared.events.lock().push(e);
    }

    fn ingest_requests(&mut self) {
        while let Ok(req) = self.jobs_rx.try_recv() {
            if let Some((worker, cause)) = &self.all_lost {
                let _ = req.reply.send(Err(RocketError::WorkerLost {
                    worker: *worker,
                    cause: cause.clone(),
                }));
                continue;
            }
            self.inflight.insert(
                req.id,
                Inflight {
                    frame: req.frame,
                    reply: req.reply,
                    attempts: 0,
                    assigned_to: None,
                    deadline: Instant::now() + self.opts.job_timeout,
                },
            );
            self.pending.push_back(req.id);
        }
    }

    /// How long the dispatcher may sleep: until the next ping is due, the
    /// next liveness deadline expires, or the earliest dispatched job
    /// times out. With every worker lost nothing is due ever again and
    /// the wait falls back to `ping_interval` — only a wake token (a
    /// submission to fail fast, or shutdown) is still worth waking for.
    fn idle_for(&self, now: Instant) -> Duration {
        let job_timeout = self
            .inflight
            .values()
            .filter(|job| job.assigned_to.is_some())
            .map(|job| job.deadline.saturating_duration_since(now))
            .min();
        self.liveness
            .next_deadline(now)
            .into_iter()
            .chain(job_timeout)
            .min()
            .unwrap_or(self.opts.ping_interval)
    }

    /// The dispatcher's only wait: blocks until a frame or a wake token
    /// arrives or something comes due, then drains whatever else is
    /// already queued without blocking again.
    fn pump_transport(&mut self) {
        let mut next = match self.transport.recv_timeout(self.idle_for(Instant::now())) {
            Ok(msg) => Some(msg),
            Err(RecvError::Timeout) => None,
            Err(RecvError::Disconnected) => {
                // Every connection is gone and the inbox is drained.
                for w in 1..=self.workers {
                    self.mark_lost(w, "transport disconnected".into());
                }
                None
            }
        };
        while let Some(Incoming { from, payload }) = next {
            // The driver's own rank marks a wake token from `run` or
            // `Drop`: what it announces is in `jobs_rx` or the shutdown
            // flag, which the caller looks at next.
            if from != DRIVER_RANK {
                self.liveness.observe(from, Instant::now());
                match ToDriver::from_bytes(payload) {
                    Ok(frame) => self.handle_frame(from, frame),
                    Err(_) => { /* undecodable frame: ignore, liveness noted */ }
                }
            }
            next = self.transport.try_recv();
        }
    }

    fn handle_frame(&mut self, from: usize, frame: ToDriver) {
        match frame {
            ToDriver::Ready { version } => {
                if version != PROTOCOL_VERSION {
                    self.mark_lost(
                        from,
                        format!("speaks protocol v{version}, driver speaks v{PROTOCOL_VERSION}"),
                    );
                } else if !self.lost.contains(&from) && !self.busy.contains_key(&from) {
                    self.ready.insert(from);
                    self.event(ClusterEvent::WorkerReady { worker: from });
                }
            }
            ToDriver::Pong { .. } => { /* the observe() above was the point */ }
            ToDriver::Done { id, report } => self.complete(from, id, Ok(report)),
            ToDriver::Failed { id, error } => self.complete(
                from,
                id,
                Err(RocketError::Config(format!("worker {from}: {error}"))),
            ),
        }
    }

    /// Folds a worker's report into the matching `run` call, deduplicating
    /// by job id, and returns the worker to the idle pool.
    fn complete(&mut self, from: usize, id: u64, result: Result<RunReport, RocketError>) {
        if self.busy.get(&from) == Some(&id) {
            self.busy.remove(&from);
            if !self.lost.contains(&from) {
                self.ready.insert(from);
            }
        }
        let Some(job) = self.inflight.remove(&id) else {
            // Ids come from one monotonic counter, so one this backend has
            // issued and no longer holds in flight already completed or
            // failed: a late duplicate. One it never issued (e.g. from a
            // previous backend instance) is not ours to classify.
            if id < self.shared.next_id.load(Ordering::SeqCst) {
                self.event(ClusterEvent::DuplicateDropped { job: id, from });
            }
            return;
        };
        self.pending.retain(|&p| p != id);
        let result = result.map(|mut report| {
            let live = self.workers - self.lost.len();
            report.degraded |= job.attempts > 1 || live < self.quorum;
            report
        });
        let _ = job.reply.send(result);
    }

    /// Losses the transport can prove without waiting for a heartbeat.
    fn detect_disconnects(&mut self) {
        for w in 1..=self.workers {
            if !self.lost.contains(&w) && !self.transport.peer_alive(w) {
                self.mark_lost(w, "connection dropped".into());
            }
        }
    }

    fn heartbeat(&mut self, now: Instant) {
        for w in self.liveness.newly_lost(now) {
            self.mark_lost(
                w,
                format!(
                    "silent past the {:?} heartbeat deadline",
                    self.opts.liveness_timeout
                ),
            );
        }
        for w in self.liveness.peers_to_ping(now) {
            if self.lost.contains(&w) {
                continue;
            }
            self.nonce += 1;
            let ping = ToWorker::Ping { nonce: self.nonce };
            if self.transport.send(w, ping.to_bytes()).is_err() {
                self.mark_lost(w, "heartbeat send failed".into());
            }
        }
    }

    fn mark_lost(&mut self, worker: usize, cause: String) {
        if !self.lost.insert(worker) {
            return;
        }
        self.liveness.mark_lost(worker);
        self.ready.remove(&worker);
        // Return the worker's unacknowledged job to the queue — unless it
        // was already re-dealt elsewhere (then the re-deal owns it).
        let mut requeued = None;
        if let Some(id) = self.busy.remove(&worker) {
            if let Some(job) = self.inflight.get_mut(&id) {
                if job.assigned_to == Some(worker) {
                    job.assigned_to = None;
                    self.pending.push_front(id);
                    requeued = Some(id);
                }
            }
        }
        self.event(ClusterEvent::WorkerLost {
            worker,
            cause: cause.clone(),
            requeued,
        });
        let live = self.workers - self.lost.len();
        if live < self.quorum && !self.below_quorum_reported {
            self.below_quorum_reported = true;
            self.event(ClusterEvent::BelowQuorum {
                live,
                quorum: self.quorum,
            });
        }
        if live == 0 {
            self.all_lost = Some((worker, cause.clone()));
            // Nobody is left to run anything: fail every outstanding job.
            self.pending.clear();
            for (_, job) in self.inflight.drain() {
                let _ = job.reply.send(Err(RocketError::WorkerLost {
                    worker,
                    cause: cause.clone(),
                }));
            }
        }
    }

    /// Re-queues jobs outstanding past the deadline. The worker keeps its
    /// busy mark: a stuck worker gets no new work until it reports
    /// something (then dedup settles who counted) or is declared lost.
    fn requeue_timed_out(&mut self, now: Instant) {
        let expired: Vec<(u64, usize)> = self
            .inflight
            .iter()
            .filter_map(|(&id, job)| match job.assigned_to {
                Some(w) if now >= job.deadline => Some((id, w)),
                _ => None,
            })
            .collect();
        for (id, worker) in expired {
            if let Some(job) = self.inflight.get_mut(&id) {
                job.assigned_to = None;
                self.pending.push_back(id);
                self.event(ClusterEvent::JobTimedOut { job: id, worker });
            }
        }
    }

    /// The idle worker to deal to next: fewest jobs dealt so far, then
    /// lowest rank. Jobs are dealt the moment they arrive, so rank alone
    /// would hand a stream of short jobs to rank 1 only (it is idle again
    /// before the next one is submitted). Placement stays deterministic
    /// when no faults occur, which keeps no-fault runs reproducible.
    fn next_worker(&self) -> Option<usize> {
        let dealt = |w: &usize| self.dealt.get(w).copied().unwrap_or(0);
        self.ready.iter().copied().min_by_key(|w| (dealt(w), *w))
    }

    fn dispatch(&mut self, now: Instant) {
        while let Some(worker) = self.next_worker() {
            let Some(id) = self.pending.pop_front() else {
                break;
            };
            let Some(job) = self.inflight.get_mut(&id) else {
                continue;
            };
            job.attempts += 1;
            match self.transport.send(worker, job.frame.clone()) {
                Ok(()) => {
                    job.assigned_to = Some(worker);
                    job.deadline = now + self.opts.job_timeout;
                    let attempt = job.attempts;
                    self.ready.remove(&worker);
                    self.busy.insert(worker, id);
                    *self.dealt.entry(worker).or_default() += 1;
                    if attempt > 1 {
                        self.event(ClusterEvent::Redealt {
                            job: id,
                            attempt,
                            to: worker,
                        });
                    }
                }
                Err(_) => {
                    job.attempts -= 1;
                    self.pending.push_front(id);
                    self.mark_lost(worker, "job send failed".into());
                    if self.all_lost.is_some() {
                        break;
                    }
                }
            }
        }
    }
}
