//! Resource threads (§4.3).
//!
//! Rocket launches one thread (or pool) per resource type so that tasks on
//! different resources never contend: CPU pool, one kernel-launch thread
//! per GPU, one H2D and one D2H copy thread per GPU, and one I/O thread.
//! Each thread executes closures sent by the conductor and posts the
//! resulting event back. A task times its own stages through the
//! [`Recorder`] it is handed, so a task that runs several stages logs one
//! [`PerfRecord`] per stage, and one launch that compares a batch of pairs
//! logs one record per pair. When the run is recorded, every thread keeps
//! a private buffer of records and hands it back at shutdown; an
//! unrecorded run reads no clock.

use std::thread::JoinHandle;

use rocket_sanitize::channel::{unbounded, Receiver, Sender};
use rocket_trace::{PerfKind, PerfRecord};

use crate::clock::Stopwatch;

/// A task executed on a resource thread, yielding an event for the
/// conductor (or `None` for fire-and-forget tasks). It times its stages
/// with the thread's recorder.
pub(crate) type Task<E> = Box<dyn FnOnce(&mut Recorder) -> Option<E> + Send>;

/// What a recorded run stamps its records with: the run-wide clock every
/// node shares, and the node the resource belongs to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Recording {
    pub clock: Stopwatch,
    pub node: u32,
}

/// One thread's stage timer: the records of a recorded run, or nothing
/// (and no clock read) for an unrecorded one.
pub(crate) struct Recorder {
    recording: Option<Recording>,
    records: Vec<PerfRecord>,
}

impl Recorder {
    pub fn new(recording: Option<Recording>) -> Self {
        Self {
            recording,
            records: Vec::new(),
        }
    }

    /// Runs `f`; a recorded run appends its duration as one `kind`
    /// record, stamped at completion.
    pub fn time<R>(&mut self, kind: PerfKind, f: impl FnOnce() -> R) -> R {
        self.time_shared(kind, 1, f)
    }

    /// Runs `f` as `n` stages of one kind, such as one kernel launch that
    /// compares `n` pairs: a recorded run appends `n` `kind` records that
    /// split its duration into equal shares (the first `duration % n`
    /// one nanosecond longer), stamped back to back, so they sum to the
    /// duration exactly and the last is stamped at completion.
    pub fn time_shared<R>(&mut self, kind: PerfKind, n: usize, f: impl FnOnce() -> R) -> R {
        let Some(Recording { clock, node }) = self.recording else {
            return f();
        };
        let start = clock.elapsed_ns();
        let r = f();
        let duration = clock.elapsed_ns() - start;
        let (share, longer) = match n as u64 {
            0 => (0, 0),
            n => (duration / n, duration % n),
        };
        let mut t_ns = start;
        for i in 0..n as u64 {
            let value = share + u64::from(i < longer);
            t_ns += value;
            self.records.push(PerfRecord {
                t_ns,
                kind,
                node,
                value,
            });
        }
        r
    }

    /// What was recorded (empty for an unrecorded run).
    pub fn into_records(self) -> Vec<PerfRecord> {
        self.records
    }
}

/// Handle to one resource (a thread or a pool sharing a queue).
pub(crate) struct Resource<E> {
    tx: Sender<Task<E>>,
    threads: Vec<JoinHandle<Vec<PerfRecord>>>,
}

impl<E: Send + 'static> Resource<E> {
    /// Spawns `threads` workers sharing one task queue. Completed events
    /// go to `events`; tasks are timed only when `recording` is given.
    pub fn spawn(
        name: &str,
        threads: usize,
        events: Sender<E>,
        recording: Option<Recording>,
    ) -> Self {
        assert!(threads >= 1);
        let (tx, rx): (Sender<Task<E>>, Receiver<_>) = unbounded();
        let handles = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                let events = events.clone();
                std::thread::Builder::new()
                    .name(format!("rocket-{name}-{i}"))
                    .spawn(move || {
                        let mut recorder = Recorder::new(recording);
                        // Runs until `shutdown` drops the only sender and
                        // the queue is drained.
                        while let Ok(task) = rx.recv() {
                            if let Some(e) = task(&mut recorder) {
                                // The conductor may already be gone
                                // during shutdown; dropping the
                                // event is fine then.
                                let _ = events.send(e);
                            }
                        }
                        recorder.into_records()
                    })
                    .expect("failed to spawn resource thread")
            })
            .collect();
        Self {
            tx,
            threads: handles,
        }
    }

    /// Queues a task.
    pub fn submit(&self, task: Task<E>) {
        self.tx.send(task).expect("resource thread gone");
    }

    /// Stops all workers after the tasks already queued, joins them, and
    /// returns what they recorded (empty for an unrecorded run).
    pub fn shutdown(self) -> Vec<PerfRecord> {
        drop(self.tx);
        self.threads
            .into_iter()
            .flat_map(|h| h.join().expect("resource thread panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_tasks_and_posts_events() {
        let (etx, erx) = unbounded::<u32>();
        let recording = Recording {
            clock: clock::stopwatch(),
            node: 3,
        };
        let r = Resource::spawn("test", 1, etx, Some(recording));
        for i in 0..5u32 {
            r.submit(Box::new(move |rec| {
                rec.time(PerfKind::Parse, || Some(i * 2))
            }));
        }
        let mut got: Vec<u32> = (0..5).map(|_| erx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
        let perf = r.shutdown();
        assert_eq!(perf.len(), 5);
        let end = recording.clock.elapsed_ns();
        for rec in &perf {
            assert_eq!((rec.kind, rec.node), (PerfKind::Parse, 3));
            assert!(rec.value <= rec.t_ns && rec.t_ns <= end, "{rec:?}");
        }
    }

    #[test]
    fn a_task_records_each_stage_it_times() {
        let (etx, erx) = unbounded::<usize>();
        let recording = Recording {
            clock: clock::stopwatch(),
            node: 0,
        };
        let r = Resource::spawn("batch", 1, etx, Some(recording));
        r.submit(Box::new(|rec| {
            Some((0..3).map(|i| rec.time(PerfKind::Compare, || i)).sum())
        }));
        assert_eq!(erx.recv().unwrap(), 3);
        let perf = r.shutdown();
        assert_eq!(perf.len(), 3, "one record per timed stage");
        assert!(perf.iter().all(|rec| rec.kind == PerfKind::Compare));
    }

    #[test]
    fn shared_records_split_one_duration_exactly() {
        let recording = Recording {
            clock: clock::stopwatch(),
            node: 0,
        };
        let mut rec = Recorder::new(Some(recording));
        let before = recording.clock.elapsed_ns();
        let r = rec.time_shared(PerfKind::Compare, 3, || 7);
        let after = recording.clock.elapsed_ns();
        assert_eq!(r, 7);
        let perf = rec.into_records();
        assert_eq!(perf.len(), 3);
        let (first, last) = (&perf[0], &perf[2]);
        let total: u64 = perf.iter().map(|p| p.value).sum();
        assert_eq!(total, last.t_ns - (first.t_ns - first.value));
        assert!(before <= first.t_ns - first.value && last.t_ns <= after);
        for w in perf.windows(2) {
            assert!(w[0].value - w[1].value <= 1, "{perf:?}");
            assert_eq!(w[1].t_ns - w[1].value, w[0].t_ns, "back to back");
        }
    }

    #[test]
    fn pool_shares_queue() {
        let (etx, erx) = unbounded::<()>();
        let seen = Arc::new(AtomicU32::new(0));
        let r = Resource::spawn("pool", 3, etx, None);
        for _ in 0..30 {
            let seen = Arc::clone(&seen);
            r.submit(Box::new(move |rec| {
                rec.time(PerfKind::Parse, || seen.fetch_add(1, Ordering::Relaxed));
                Some(())
            }));
        }
        for _ in 0..30 {
            erx.recv().unwrap();
        }
        assert_eq!(seen.load(Ordering::Relaxed), 30);
        assert!(r.shutdown().is_empty(), "unrecorded run keeps nothing");
    }

    #[test]
    fn fire_and_forget_tasks() {
        let (etx, erx) = unbounded::<u8>();
        let r = Resource::spawn("ff", 1, etx, None);
        r.submit(Box::new(|_| None));
        r.submit(Box::new(|_| Some(1)));
        assert_eq!(erx.recv().unwrap(), 1);
        r.shutdown();
        assert!(erx.try_recv().is_err());
    }

    #[test]
    fn shutdown_runs_queued_tasks_then_joins() {
        let (etx, erx) = unbounded::<u8>();
        let r = Resource::spawn("s", 2, etx, None);
        for i in 0..8 {
            r.submit(Box::new(move |_| Some(i)));
        }
        r.shutdown();
        assert_eq!((0..8).filter(|_| erx.try_recv().is_ok()).count(), 8);
    }
}
