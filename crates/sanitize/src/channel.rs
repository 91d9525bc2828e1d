//! Unbounded multi-producer, multi-consumer channels.
//!
//! A channel is a `VecDeque` under one [`Mutex`] named `"channel"`, with a
//! [`Condvar`] that receivers park on. Every channel shares that name: a
//! channel lock is always the innermost lock (no other lock is taken while
//! it is held), so it can never close a lock-order cycle, and the witness
//! only needs to see which locks are held around it.
//!
//! Both halves can be cloned. The channel disconnects for receivers when
//! the last [`Sender`] drops (once the queue is drained), and for senders
//! when the last [`Receiver`] drops. The error types are std's
//! `mpsc` ones, with the same variants and meaning.
//!
//! On the threaded runtime's hit path the channels carry batches, not
//! pairs: a submission to the conductor carries one grant of job permits,
//! and a GPU task and its completion carry every compare that became ready
//! in one conductor drain. Each send is one short critical section plus a
//! wake-up; what a hand-off costs is mostly the context switch the wake-up
//! causes.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

use crate::{Condvar, Mutex};

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

struct State<T> {
    items: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

impl<T> State<T> {
    /// A receiver waits while nothing is queued and a sender may still
    /// queue something.
    fn must_wait(&mut self) -> bool {
        self.items.is_empty() && self.senders > 0
    }
}

/// The sending half. Clonable; receivers see the channel disconnect when
/// the last clone drops.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half. Clonable: each message goes to exactly one
/// receiver.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates an unbounded multi-producer, multi-consumer channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::named(
            "channel",
            State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            },
        ),
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
    /// Queues a message, failing only if every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.state.lock();
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
        self.shared.state.lock().senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock();
        state.senders -= 1;
        let disconnect = state.senders == 0;
        drop(state);
        if disconnect {
            self.shared.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives, or fails once the queue is empty
    /// and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let state = self.shared.state.lock();
        let mut state = self.shared.ready.wait_while(state, State::must_wait);
        state.items.pop_front().ok_or(RecvError)
    }

    /// Blocks up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let state = self.shared.state.lock();
        let (mut state, _) = self
            .shared
            .ready
            .wait_timeout_while(state, timeout, State::must_wait);
        match state.items.pop_front() {
            Some(v) => Ok(v),
            None if state.senders == 0 => Err(RecvTimeoutError::Disconnected),
            None => Err(RecvTimeoutError::Timeout),
        }
    }

    /// Returns a message if one is queued, without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.state.lock();
        match state.items.pop_front() {
            Some(v) => Ok(v),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().receivers += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.state.lock().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn roundtrip_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn timeout_then_disconnected() {
        let (tx, rx) = unbounded::<i32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(7).unwrap();
        drop(tx);
        // Queued messages outlive the last sender.
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(7));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn crosses_threads() {
        let (tx, rx) = unbounded();
        let h = thread::spawn(move || {
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
    fn send_fails_once_every_receiver_is_gone() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        drop(rx);
        tx.send(1).unwrap();
        assert_eq!(rx2.recv(), Ok(1));
        drop(rx2);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn cloned_receivers_take_each_message_once() {
        const N: u32 = 1000;
        let (tx, rx) = unbounded();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for i in 0..N {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
    }
}
