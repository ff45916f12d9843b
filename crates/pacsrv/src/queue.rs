//! Bounded MPSC batch queue backing each shard.
//!
//! Producers are admission-controlled callers; the single consumer is the
//! shard's worker thread, which drains up to `batch_max` items per wakeup
//! (opportunistic batching: under light load batches are size 1 and
//! latency is one handoff; under heavy load batches grow toward the cap
//! and per-item overhead amortizes).
//!
//! The queue is the backpressure primitive: [`push`](BatchQueue::push)
//! never blocks; it admits the prefix of a group that fits and hands the
//! rest back, which the service turns into explicit `Overloaded` replies.
//! Memory is therefore bounded by `capacity * shards` jobs no matter the
//! offered load.
//!
//! A push takes the lock once per group and wakes the consumer only if
//! it is parked: std's condvar makes a futex syscall on every notify, so
//! a consumer that is busy executing is never signalled.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Why [`BatchQueue::pop_batch`] returned without items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopStatus {
    /// `out` holds 1..=max items.
    Items,
    /// The queue is closed and fully drained (graceful shutdown), or was
    /// killed (abrupt shutdown; remaining items were handed back to the
    /// killer by [`BatchQueue::kill`]).
    Done,
}

struct Inner<T> {
    items: VecDeque<T>,
    /// No further pushes; consumer drains what remains.
    closed: bool,
    /// Consumer stops immediately, abandoning queued items.
    killed: bool,
    /// The consumer is waiting on the condvar; the push that clears this
    /// flag owes it the one wake.
    parked: bool,
}

/// A bounded multi-producer, single-consumer queue with batched pops.
pub struct BatchQueue<T> {
    inner: Mutex<Inner<T>>,
    notify: Condvar,
    capacity: usize,
    /// Mirror of `items.len()` readable without the lock (depth gauge).
    depth: AtomicUsize,
}

impl<T> BatchQueue<T> {
    /// A queue holding at most `capacity` items (floored at 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BatchQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(4096)),
                closed: false,
                killed: false,
                parked: false,
            }),
            notify: Condvar::new(),
            capacity,
            depth: AtomicUsize::new(0),
        }
    }

    /// Non-blocking group push: under one lock, moves the longest prefix
    /// of `group` that fits into the queue, in order, and leaves the rest
    /// in `group` for the caller to shed. A closed or killed queue admits
    /// nothing. Returns the number admitted.
    pub fn push(&self, group: &mut Vec<T>) -> usize {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed || inner.killed {
            return 0;
        }
        let n = group.len().min(self.capacity - inner.items.len());
        if n == 0 {
            return 0;
        }
        inner.items.extend(group.drain(..n));
        self.depth.store(inner.items.len(), Ordering::Relaxed);
        let wake = std::mem::take(&mut inner.parked);
        drop(inner);
        if wake {
            self.notify.notify_one();
        }
        n
    }

    /// Blocks until items are available (or the queue is done), then moves
    /// up to `max` of them into `out`. Single consumer only: the `parked`
    /// flag tracks one waiter.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> PopStatus {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.killed || (inner.closed && inner.items.is_empty()) {
                return PopStatus::Done;
            }
            if !inner.items.is_empty() {
                let n = inner.items.len().min(max.max(1));
                out.extend(inner.items.drain(..n));
                self.depth.store(inner.items.len(), Ordering::Relaxed);
                return PopStatus::Items;
            }
            inner.parked = true;
            inner = self.notify.wait(inner).unwrap();
        }
    }

    /// Graceful shutdown: rejects new pushes; the consumer drains the rest.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.notify.notify_all();
    }

    /// Abrupt shutdown: the consumer stops at its next wakeup, and the
    /// queued items it will never see are handed back to the killer
    /// (which must answer or drop them — they are no longer reachable
    /// through the queue, so leaving their completions unfilled would
    /// hang any thread waiting on them).
    #[must_use = "abandoned items carry reply slots that must be completed"]
    pub fn kill(&self) -> Vec<T> {
        let mut inner = self.inner.lock().unwrap();
        inner.killed = true;
        let abandoned: Vec<T> = inner.items.drain(..).collect();
        self.depth.store(0, Ordering::Relaxed);
        drop(inner);
        self.notify.notify_all();
        abandoned
    }

    /// Current queue depth (lock-free; may lag the truth by one update).
    pub fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn bounded_push_and_batched_pop() {
        let q = BatchQueue::new(4);
        for i in 0..4 {
            assert_eq!(q.push(&mut vec![i]), 1);
        }
        let mut rest = vec![99];
        assert_eq!(q.push(&mut rest), 0, "fifth push must shed");
        assert_eq!(rest, vec![99]);
        assert_eq!(q.len(), 4);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(3, &mut out), PopStatus::Items);
        assert_eq!(out, vec![0, 1, 2], "drains up to max, FIFO");
        out.clear();
        assert_eq!(q.pop_batch(3, &mut out), PopStatus::Items);
        assert_eq!(out, vec![3]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn group_push_admits_the_prefix_that_fits() {
        let q = BatchQueue::new(5);
        q.push(&mut vec![0, 1]);
        let mut group: Vec<i32> = (10..16).collect();
        assert_eq!(q.push(&mut group), 3, "room for exactly three");
        assert_eq!(group, vec![13, 14, 15], "the rest is handed back in order");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(8, &mut out), PopStatus::Items);
        assert_eq!(out, vec![0, 1, 10, 11, 12]);
    }

    #[test]
    fn closed_or_killed_queue_hands_back_the_whole_group() {
        let closed = BatchQueue::new(8);
        closed.close();
        let mut group = vec![1, 2, 3];
        assert_eq!(closed.push(&mut group), 0);
        assert_eq!(group, vec![1, 2, 3]);
        let killed = BatchQueue::new(8);
        assert!(killed.kill().is_empty());
        assert_eq!(killed.push(&mut group), 0);
        assert_eq!(group, vec![1, 2, 3]);
    }

    #[test]
    fn close_drains_then_done() {
        let q = BatchQueue::new(8);
        q.push(&mut vec![1]);
        q.close();
        assert_eq!(q.push(&mut vec![2]), 0, "closed queue rejects pushes");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(8, &mut out), PopStatus::Items);
        assert_eq!(out, vec![1]);
        out.clear();
        assert_eq!(q.pop_batch(8, &mut out), PopStatus::Done);
    }

    #[test]
    fn kill_returns_abandoned_items_to_the_killer() {
        let q = BatchQueue::new(8);
        q.push(&mut vec![1, 2]);
        assert_eq!(q.kill(), vec![1, 2]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.push(&mut vec![3]), 0, "killed queue rejects pushes");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(8, &mut out), PopStatus::Done);
        assert!(out.is_empty(), "killed queue hands out nothing");
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(BatchQueue::new(8));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            let mut out = Vec::new();
            let s = q2.pop_batch(4, &mut out);
            (s, out)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(&mut vec![7u32]);
        let (s, out) = h.join().unwrap();
        assert_eq!(s, PopStatus::Items);
        assert_eq!(out, vec![7]);
    }

    /// The wake rule under contention: each round the producer pushes one
    /// item or a group of three, then waits for the consumer to report
    /// them, so every push races the consumer parking. A push that skips
    /// the wake of a parked consumer stalls a round, and the producer's
    /// timeout turns that into a failure instead of a hang.
    #[test]
    fn parked_consumer_never_misses_a_push() {
        const ROUNDS: u64 = 100_000;
        let q = Arc::new(BatchQueue::new(4));
        let (ack, acks) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let (mut out, mut next) = (Vec::new(), 0u64);
                while q.pop_batch(4, &mut out) == PopStatus::Items {
                    for item in out.drain(..) {
                        assert_eq!(item, next, "items arrive once, in order");
                        next += 1;
                    }
                    if ack.send(next).is_err() {
                        break;
                    }
                }
                next
            })
        };
        let mut sent = 0u64;
        for round in 0..ROUNDS {
            let n = if round % 2 == 0 { 1 } else { 3 };
            assert_eq!(q.push(&mut (sent..sent + n).collect()), n as usize);
            sent += n;
            let mut seen = 0;
            while seen < sent {
                match acks.recv_timeout(Duration::from_secs(5)) {
                    Ok(n) => seen = n,
                    Err(_) => {
                        q.close();
                        panic!("round {round}: consumer stalled at {seen} of {sent} items");
                    }
                }
            }
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), sent);
    }
}
