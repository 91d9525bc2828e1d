//! Offline stand-in for the `crossbeam` crate.
//!
//! Implements the two facilities Rocket uses — [`channel`] (mpmc unbounded
//! channels with timeouts and disconnect detection) and [`deque`]
//! (owner-LIFO / thief-FIFO work-stealing deques) — on top of plain mutexes
//! and condition variables. Correctness and API compatibility over raw
//! scalability. On the threaded runtime's hit path the channels carry
//! batches, not pairs: a submission to the conductor carries one grant of
//! job permits, and a GPU task and its completion carry every compare that
//! became ready in one conductor drain. Each send is one short critical
//! section plus a wake-up; what a hand-off costs is mostly the context
//! switch the wake-up causes.

#![forbid(unsafe_code)]

pub mod channel {
    //! Multi-producer multi-consumer unbounded channels.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        ready: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone; holds
    /// the rejected message.
    #[derive(Clone, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message available right now.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// The sending half. Clonable; the channel disconnects when the last
    /// clone drops.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half. Clonable (mpmc): each message goes to exactly one
    /// receiver.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded mpmc channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Sends a message, failing only if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.items.push_back(value);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .senders += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.senders -= 1;
            let disconnect = state.senders == 0;
            drop(state);
            if disconnect {
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = state.items.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = state.items.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (s, timed_out) = self
                    .shared
                    .ready
                    .wait_timeout(state, left)
                    .unwrap_or_else(PoisonError::into_inner);
                state = s;
                if timed_out.timed_out() && state.items.is_empty() {
                    return if state.senders == 0 {
                        Err(RecvTimeoutError::Disconnected)
                    } else {
                        Err(RecvTimeoutError::Timeout)
                    };
                }
            }
        }

        /// Returns a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match state.items.pop_front() {
                Some(v) => Ok(v),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .receivers += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .receivers -= 1;
        }
    }
}

pub mod deque {
    //! Work-stealing deques: the owner pops LIFO, thieves steal FIFO.

    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, PoisonError};

    /// Outcome of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The deque was empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// Transient contention; try again.
        Retry,
    }

    /// The owning half of a deque.
    pub struct Worker<T> {
        shared: Arc<Mutex<VecDeque<T>>>,
    }

    /// A handle thieves use to steal from the other end.
    pub struct Stealer<T> {
        shared: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        /// Creates a deque whose owner pops in LIFO order (depth-first).
        pub fn new_lifo() -> Self {
            Self {
                shared: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        /// Pushes a task onto the owner's end.
        pub fn push(&self, task: T) {
            self.shared
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(task);
        }

        /// Pops the most recently pushed task (depth-first descent).
        pub fn pop(&self) -> Option<T> {
            self.shared
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_back()
        }

        /// Creates a stealer handle for this deque.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                shared: Arc::clone(&self.shared),
            }
        }

        /// True if no tasks are queued.
        pub fn is_empty(&self) -> bool {
            self.shared
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty()
        }
    }

    impl<T> Stealer<T> {
        /// Steals the oldest task (highest block in the quadrant tree).
        pub fn steal(&self) -> Steal<T> {
            match self
                .shared
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
            {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError, TryRecvError};
    use super::deque::{Steal, Worker};
    use std::time::Duration;

    #[test]
    fn channel_roundtrip_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn channel_timeout() {
        let (tx, rx) = unbounded::<i32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn channel_crosses_threads() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0;
        for _ in 0..100 {
            sum += rx.recv().unwrap();
        }
        h.join().unwrap();
        assert_eq!(sum, 4950);
    }

    #[test]
    fn deque_owner_lifo_thief_fifo() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3)); // owner: depth-first
        assert_eq!(s.steal(), Steal::Success(1)); // thief: oldest
        assert_eq!(w.pop(), Some(2));
        assert_eq!(s.steal(), Steal::Empty);
    }
}
