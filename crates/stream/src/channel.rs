//! A small bounded multi-producer multi-consumer queue.
//!
//! The orchestrator (`bnf-engine`) hands completed ranges from many
//! workers to one writer through a *bounded* buffer, so fast workers
//! cannot pile up finished segments faster than the writer persists
//! them. This is the classic `Mutex<VecDeque>` + two-condvar implementation, plus a
//! [`CloseGuard`] so a panicking side closes the queue instead of
//! deadlocking the other side.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

#[derive(Debug)]
struct State<T> {
    buf: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue of work items.
///
/// [`push`](BoundedQueue::push) blocks while the queue is full;
/// [`pop`](BoundedQueue::pop) blocks while it is empty and returns
/// `None` once the queue is closed *and* drained. After
/// [`close`](BoundedQueue::close), pushes are silently dropped — the
/// close is a cancellation signal, not a flush barrier.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
    /// Deepest the buffer ever got — the backlog high-water mark the
    /// telemetry reports (updated under the push lock, read lock-free).
    high_water: AtomicUsize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` (≥ 1) items.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        let capacity = capacity.max(1);
        BoundedQueue {
            state: Mutex::new(State {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            capacity,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            high_water: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until there is room (or the queue is closed), then
    /// enqueues `item`. Returns `false` iff the queue was closed and the
    /// item dropped.
    pub fn push(&self, item: T) -> bool {
        let mut state = self.lock();
        while state.buf.len() >= self.capacity && !state.closed {
            state = self
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.closed {
            return false;
        }
        state.buf.push_back(item);
        let depth = state.buf.len();
        drop(state);
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        self.not_empty.notify_one();
        true
    }

    /// The deepest the queue ever got — how close the consumer side
    /// came to stalling the producers. Capacity-bounded, so a reading
    /// equal to the capacity means the bound actually engaged.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Blocks until an item is available and dequeues it; `None` once
    /// the queue is closed and empty.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.buf.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: consumers drain what is buffered and then see
    /// `None`; blocked and future producers give up. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// A drop guard that [`close`](BoundedQueue::close)s this queue —
    /// hold one on each side of the pipeline so a panic unwinds into a
    /// close instead of stranding the peer on a full/empty wait.
    pub fn close_guard(&self) -> CloseGuard<'_, T> {
        CloseGuard { queue: self }
    }
}

/// Closes the underlying [`BoundedQueue`] when dropped (normally or
/// during unwinding).
#[derive(Debug)]
pub struct CloseGuard<'q, T> {
    queue: &'q BoundedQueue<T>,
}

impl<T> Drop for CloseGuard<'_, T> {
    fn drop(&mut self) {
        self.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert_eq!(q.pop(), None);
        assert!(!q.push(3));
    }

    #[test]
    fn high_water_tracks_the_deepest_backlog() {
        let q = BoundedQueue::new(8);
        assert_eq!(q.high_water(), 0);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(q.push(3));
        assert_eq!(q.high_water(), 3);
        // Draining never lowers the mark…
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.high_water(), 3);
        // …and refilling past it raises it again.
        for i in 0..4 {
            assert!(q.push(10 + i));
        }
        assert_eq!(q.high_water(), 5);
        q.close();
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = BoundedQueue::new(0);
        assert!(q.push(7));
        assert_eq!(q.pop(), Some(7));
        q.close();
    }

    #[test]
    fn bounded_producer_blocks_until_consumed() {
        let q = BoundedQueue::new(2);
        let produced = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100 {
                    assert!(q.push(i));
                    produced.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
                q.close();
            });
            s.spawn(|| {
                let mut expect = 0;
                while let Some(i) = q.pop() {
                    assert_eq!(i, expect);
                    expect += 1;
                    // The producer can never run more than capacity ahead.
                    let ahead = produced.load(std::sync::atomic::Ordering::SeqCst) - i;
                    assert!(
                        ahead <= 3,
                        "producer ran {ahead} ahead of a capacity-2 queue"
                    );
                }
                assert_eq!(expect, 100);
            });
        });
    }

    #[test]
    fn many_producers_many_consumers_cover_all_items() {
        let q = BoundedQueue::new(8);
        let items: Vec<usize> = (0..400).collect();
        let total: usize = items.iter().sum();
        let got = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while let Some(i) = q.pop() {
                        got.fetch_add(i, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
            // Nested scope: block until every producer finishes, then
            // close so the consumers above can drain and exit.
            let q = &q;
            std::thread::scope(|p| {
                for chunk in items.chunks(100) {
                    p.spawn(move || {
                        for &i in chunk {
                            assert!(q.push(i));
                        }
                    });
                }
            });
            q.close();
        });
        assert_eq!(got.load(std::sync::atomic::Ordering::SeqCst), total);
    }

    #[test]
    fn close_guard_closes_on_panic() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = q.close_guard();
            panic!("producer died");
        }));
        assert!(caught.is_err());
        // A consumer arriving afterwards terminates instead of blocking.
        assert_eq!(q.pop(), None);
    }
}
