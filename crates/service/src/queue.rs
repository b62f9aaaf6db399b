//! A bounded multi-producer multi-consumer queue.
//!
//! `Mutex<VecDeque>` + `Condvar` — deliberately simple. The queue is
//! the service's admission-control point: producers never block
//! (`try_push` fails fast when full) while consumers block until work
//! arrives or the queue is closed.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue. See the module docs.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        let queue = BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        };
        queue.inner.set_name("service.queue");
        queue
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Non-blocking push; fails fast when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and takes the oldest. Returns
    /// `None` once the queue is closed **and** empty — the consumer's
    /// signal to exit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            self.available.wait(&mut inner);
        }
    }

    /// Closes the queue: future pushes fail, consumers drain what is
    /// left and then see `None`.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn pops_in_fifo_order() {
        let q = BoundedQueue::new(10);
        for i in 0..7 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 7);
        let popped: Vec<i32> = (0..7).filter_map(|_| q.pop()).collect();
        assert_eq!(popped, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_rejects() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    /// Producers retry a small queue until it takes each item while
    /// consumers drain it: every accepted item comes out exactly once,
    /// and a `Full` refusal leaves nothing behind.
    #[test]
    fn stress_concurrent_producers_consumers_deliver_everything() {
        let q = Arc::new(BoundedQueue::new(4));
        let (delivered, consumed) = mpsc::channel();
        for _ in 0..3 {
            let (q, delivered) = (q.clone(), delivered.clone());
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                delivered.send(got).unwrap();
            });
        }
        let (pushed, produced) = mpsc::channel();
        for p in 0..4 {
            let (q, pushed) = (q.clone(), pushed.clone());
            std::thread::spawn(move || {
                for v in p * 2000..(p + 1) * 2000 {
                    loop {
                        match q.try_push(v) {
                            Ok(()) => break,
                            Err(PushError::Full(_)) => std::thread::yield_now(),
                            Err(PushError::Closed(_)) => panic!("closed early"),
                        }
                    }
                }
                pushed.send(()).unwrap();
            });
        }
        // A panicking thread drops its sender; a hung one times out.
        drop((delivered, pushed));
        let limit = Duration::from_secs(10);
        for _ in 0..4 {
            produced.recv_timeout(limit).expect("a producer failed");
        }
        q.close();
        let mut all: Vec<u32> = (0..3)
            .flat_map(|_| consumed.recv_timeout(limit).expect("a consumer failed"))
            .collect();
        all.sort_unstable();
        let want: Vec<u32> = (0..8000).collect();
        assert_eq!(all, want, "delivered items differ from accepted items");
    }

    /// `close` wakes every consumer parked in `pop` on an empty
    /// queue, and each of them sees `None`.
    #[test]
    fn stress_close_wakes_every_blocked_consumer() {
        for _ in 0..20 {
            let q = Arc::new(BoundedQueue::<u32>::new(4));
            let (done, finished) = mpsc::channel();
            for _ in 0..8 {
                let (q, done) = (q.clone(), done.clone());
                std::thread::spawn(move || {
                    let _ = done.send(q.pop());
                });
            }
            // Most consumers park meanwhile; a late one sees the flag.
            std::thread::sleep(Duration::from_millis(5));
            q.close();
            for _ in 0..8 {
                let popped = finished.recv_timeout(Duration::from_secs(2));
                assert_eq!(popped.expect("a consumer stayed blocked"), None);
            }
        }
    }
}
