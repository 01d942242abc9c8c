//! A bounded MPMC mailbox: `Mutex<VecDeque>` + `Condvar`, nothing
//! fancier. Admission uses [`Mailbox::try_send`] (which sheds load
//! instead of blocking); workers drain up to a micro-batch of items per
//! wakeup with [`Mailbox::recv_batch`]; the supervisor re-enqueues
//! crash-replayed items at the *front* with [`Mailbox::push_front`] so a
//! replay is never shed and never queues behind younger requests.

use crate::lock;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Why a [`Mailbox::try_send`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The queue is at capacity; the item should be shed with a typed
    /// rejection carrying the current depth.
    Full {
        /// Queue depth at the time of the refusal.
        depth: usize,
    },
    /// The mailbox was closed (server draining).
    Closed,
}

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    cap: usize,
}

/// A cloneable handle to one bounded queue.
pub struct Mailbox<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Mailbox {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Mailbox<T> {
    /// A mailbox holding at most `cap` items (minimum 1).
    pub fn new(cap: usize) -> Self {
        Mailbox {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    closed: false,
                }),
                cv: Condvar::new(),
                cap: cap.max(1),
            }),
        }
    }

    /// Enqueue without blocking; at capacity or after close the item is
    /// handed back with the reason so the caller can shed it.
    pub fn try_send(&self, item: T) -> Result<(), (T, SendError)> {
        let mut st = lock(&self.inner.state);
        if st.closed {
            return Err((item, SendError::Closed));
        }
        if st.queue.len() >= self.inner.cap {
            let depth = st.queue.len();
            return Err((item, SendError::Full { depth }));
        }
        st.queue.push_back(item);
        drop(st);
        self.inner.cv.notify_one();
        Ok(())
    }

    /// Enqueue at the front, ignoring the capacity bound. Reserved for
    /// crash replays: a request that already survived a worker loss must
    /// not be shed by the same backpressure that protects admission, and
    /// it keeps its place ahead of younger requests.
    pub fn push_front(&self, item: T) {
        let mut st = lock(&self.inner.state);
        st.queue.push_front(item);
        drop(st);
        self.inner.cv.notify_one();
    }

    /// Block until at least one item (or close), then drain up to `max`
    /// items in FIFO order — the micro-batch. `None` means closed and
    /// fully drained: the worker should exit.
    pub fn recv_batch(&self, max: usize) -> Option<Vec<T>> {
        let mut st = lock(&self.inner.state);
        while st.queue.is_empty() {
            if st.closed {
                return None;
            }
            st = self
                .inner
                .cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let take = st.queue.len().min(max.max(1));
        let batch: Vec<T> = st.queue.drain(..take).collect();
        if !st.queue.is_empty() {
            // More than one batch queued: wake a sibling worker too.
            self.inner.cv.notify_one();
        }
        Some(batch)
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        lock(&self.inner.state).queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the mailbox: senders get [`SendError::Closed`], workers
    /// drain what remains and then exit.
    pub fn close(&self) {
        lock(&self.inner.state).closed = true;
        self.inner.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_send_and_batched_recv() {
        let mb: Mailbox<u32> = Mailbox::new(2);
        assert_eq!(mb.try_send(1), Ok(()));
        assert_eq!(mb.try_send(2), Ok(()));
        assert_eq!(mb.try_send(3), Err((3, SendError::Full { depth: 2 })));
        assert_eq!(mb.recv_batch(8), Some(vec![1, 2]));
        assert!(mb.is_empty());
    }

    #[test]
    fn push_front_bypasses_the_cap_and_orders_first() {
        let mb: Mailbox<u32> = Mailbox::new(1);
        assert_eq!(mb.try_send(1), Ok(()));
        mb.push_front(0);
        assert_eq!(mb.len(), 2);
        assert_eq!(mb.recv_batch(8), Some(vec![0, 1]));
    }

    #[test]
    fn close_drains_then_ends() {
        let mb: Mailbox<u32> = Mailbox::new(4);
        assert_eq!(mb.try_send(1), Ok(()));
        mb.close();
        assert_eq!(mb.try_send(2), Err((2, SendError::Closed)));
        assert_eq!(mb.recv_batch(8), Some(vec![1]));
        assert_eq!(mb.recv_batch(8), None);
    }

    #[test]
    fn recv_blocks_until_send() {
        let mb: Mailbox<u32> = Mailbox::new(4);
        let mb2 = mb.clone();
        let t = std::thread::spawn(move || mb2.recv_batch(4));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(mb.try_send(7), Ok(()));
        assert_eq!(t.join().expect("recv thread"), Some(vec![7]));
    }
}
