//! Faithful ports of the engine's critical sections onto the model
//! types, each with a deliberately-broken twin. The exhaustive tests
//! in `interleavings.rs` and the `BENCH_model.json` emitter both run
//! these.
//!
//! Ports mirror (line-for-line where the borrow checker allows):
//! - `CityRegistry` single-flight + lease-pinned eviction
//!   (crates/tenant/src/registry.rs).
//! - `BoundedQueue` (crates/service/src/queue.rs) — fail-fast push,
//!   blocking batched pop, close-drains-then-ends.
//! - `CounterSink`/`CounterScope` (crates/obs/src/counters.rs) —
//!   LIFO scope flush into shared atomic sinks.

// Each test crate compiles this module separately and uses a subset.
#![allow(dead_code)]

use atsq_model::check::atomic::{AtomicU64, Ordering};
use atsq_model::check::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

// ---- CityRegistry single-flight ---------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CityState {
    Unloaded,
    Loading,
    Ready,
}

pub struct RegistrySt {
    pub state: CityState,
    pub factory_runs: u32,
}

/// Port of the registry's Mutex+Condvar single-flight state machine.
pub struct Registry {
    pub inner: Mutex<RegistrySt>,
    pub cond: Condvar,
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            inner: Mutex::new(RegistrySt {
                state: CityState::Unloaded,
                factory_runs: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// The real `resolve_counted` shape: loop over the state under the
    /// lock; waiters re-check after every wakeup; the loader publishes
    /// Ready and notifies all with the factory run *outside* the lock.
    pub fn resolve(&self) {
        let mut g = self.inner.lock();
        loop {
            match g.state {
                CityState::Ready => return,
                CityState::Loading => self.cond.wait(&mut g),
                CityState::Unloaded => {
                    g.state = CityState::Loading;
                    drop(g);
                    // (factory body runs here, lock released)
                    g = self.inner.lock();
                    g.factory_runs += 1;
                    g.state = CityState::Ready;
                    self.cond.notify_all();
                    return;
                }
            }
        }
    }

    /// BROKEN TWIN: the double-check removed — the thread drops the
    /// lock *without* claiming the Loading state, so two first queries
    /// can both observe Unloaded and both run the factory.
    pub fn resolve_no_claim(&self) {
        let mut g = self.inner.lock();
        loop {
            match g.state {
                CityState::Ready => return,
                CityState::Loading => self.cond.wait(&mut g),
                CityState::Unloaded => {
                    drop(g);
                    // (factory body runs here — unclaimed!)
                    g = self.inner.lock();
                    g.factory_runs += 1;
                    g.state = CityState::Ready;
                    self.cond.notify_all();
                    return;
                }
            }
        }
    }

    /// BROKEN TWIN: `wait` treated as a one-shot — assumes any wakeup
    /// means Ready. An injected spurious wakeup while the loader is
    /// still in flight trips the assert.
    pub fn resolve_wait_once(&self) {
        let mut g = self.inner.lock();
        match g.state {
            CityState::Ready => {}
            CityState::Loading => {
                self.cond.wait(&mut g);
                assert!(
                    g.state == CityState::Ready,
                    "woke from wait while city still Loading (spurious wakeup unhandled)"
                );
            }
            CityState::Unloaded => {
                g.state = CityState::Loading;
                drop(g);
                g = self.inner.lock();
                g.factory_runs += 1;
                g.state = CityState::Ready;
                self.cond.notify_all();
            }
        }
    }
}

// ---- lease pinning vs eviction ----------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeaseState {
    Ready,
    Evicted,
}

pub struct CitySt {
    pub state: LeaseState,
}

/// Port of the registry's lease/evict pair: leases are only created
/// under the registry lock; the evictor reads `inflight` under that
/// same lock, which is what makes the Relaxed counter sound.
pub struct City {
    pub inner: Mutex<CitySt>,
    pub inflight: AtomicU64,
}

impl City {
    pub fn new() -> Self {
        City {
            inner: Mutex::new(CitySt {
                state: LeaseState::Ready,
            }),
            inflight: AtomicU64::new(0),
        }
    }

    /// Takes a lease if the city is resident. Returns whether a lease
    /// was taken; the caller must `end_lease` after use.
    pub fn lease(&self) -> bool {
        let g = self.inner.lock();
        if g.state == LeaseState::Ready {
            // ordering: Relaxed — creation is serialized by the lock.
            self.inflight.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Lease drop is lock-free, like `CityLease::drop`.
    pub fn end_lease(&self) {
        // ordering: Relaxed — the evictor re-reads under the lock.
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Asserts the pinning invariant from the leaseholder's side.
    pub fn use_leased(&self) {
        let g = self.inner.lock();
        assert!(
            g.state == LeaseState::Ready,
            "city evicted while a lease (inflight > 0) was held"
        );
        drop(g);
    }

    /// Correct evictor: inflight is read under the registry lock.
    pub fn evict_if_idle(&self) -> bool {
        let mut g = self.inner.lock();
        // ordering: Relaxed — serialized with lease creation by the
        // lock; a stale non-zero read only delays eviction.
        if g.state == LeaseState::Ready && self.inflight.load(Ordering::Relaxed) == 0 {
            g.state = LeaseState::Evicted;
            return true;
        }
        false
    }

    /// BROKEN TWIN: reads `inflight` *before* taking the lock — a
    /// lease created in between is invisible and the city is evicted
    /// out from under it.
    pub fn evict_unlocked_check(&self) -> bool {
        let idle = self.inflight.load(Ordering::Relaxed) == 0;
        let mut g = self.inner.lock();
        if g.state == LeaseState::Ready && idle {
            g.state = LeaseState::Evicted;
            return true;
        }
        false
    }
}

// ---- BoundedQueue ------------------------------------------------------

pub struct QueueInner {
    pub items: VecDeque<u32>,
    pub closed: bool,
}

/// Port of `service/queue.rs`: fail-fast `try_push`, blocking batched
/// `pop_batch`, `close` drains then ends.
pub struct Queue {
    pub inner: Mutex<QueueInner>,
    pub available: Condvar,
    pub capacity: usize,
}

impl Queue {
    pub fn new(capacity: usize) -> Self {
        Queue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    pub fn try_push(&self, v: u32) -> bool {
        let mut g = self.inner.lock();
        if g.closed || g.items.len() >= self.capacity {
            return false; // fail fast; no slot consumed
        }
        g.items.push_back(v);
        drop(g);
        self.available.notify_one();
        true
    }

    /// BROKEN TWIN: pushes before checking capacity and leaks the slot
    /// on rejection — the "rejected" item is still delivered.
    pub fn try_push_leaky(&self, v: u32) -> bool {
        let mut g = self.inner.lock();
        g.items.push_back(v);
        if g.items.len() > self.capacity {
            return false; // BROKEN: item left in the queue
        }
        drop(g);
        self.available.notify_one();
        true
    }

    pub fn pop_batch(&self, max: usize) -> Option<Vec<u32>> {
        let mut g = self.inner.lock();
        loop {
            assert!(
                g.items.len() <= self.capacity,
                "queue holds {} items with capacity {} (slot leak)",
                g.items.len(),
                self.capacity
            );
            if !g.items.is_empty() {
                let n = g.items.len().min(max);
                let batch: Vec<u32> = g.items.drain(..n).collect();
                let more = !g.items.is_empty();
                drop(g);
                if more {
                    self.available.notify_one();
                }
                return Some(batch);
            }
            if g.closed {
                return None;
            }
            self.available.wait(&mut g);
        }
    }

    pub fn close(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        drop(g);
        self.available.notify_all();
    }

    /// BROKEN TWIN: close without the wakeup — a consumer already
    /// parked in `wait` never learns the queue ended (lost wakeup,
    /// surfaces as a model deadlock).
    pub fn close_silent(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        drop(g);
    }
}

// ---- obs counter scopes ------------------------------------------------

/// Port of `CounterSink`: totals accumulate via atomic RMW.
pub struct Sink {
    pub total: AtomicU64,
}

impl Sink {
    pub fn new() -> Self {
        Sink {
            total: AtomicU64::new(0),
        }
    }

    pub fn flush(&self, delta: u64) {
        // ordering: Relaxed — totals are a sum, no ordering needed.
        self.total.fetch_add(delta, Ordering::Relaxed);
    }

    /// BROKEN TWIN: flush as load-then-store — concurrent flushes from
    /// two threads lose updates.
    pub fn flush_racy(&self, delta: u64) {
        let t = self.total.load(Ordering::Relaxed);
        self.total.store(t + delta, Ordering::Relaxed);
    }
}

/// One worker's nested counter scopes, mirroring `CounterScope`'s
/// LIFO drop order: the inner scope flushes its delta first, the
/// outer scope's flush covers the whole extent (inner work included).
pub fn scoped_worker(outer: &Arc<Sink>, inner: &Arc<Sink>, racy: bool) {
    let mut counter = 0u64; // stands in for the thread-local cell
    let outer_baseline = counter;
    counter += 1; // work attributed to the outer scope only
    {
        let inner_baseline = counter;
        counter += 2; // work inside the inner scope
        let delta = counter - inner_baseline;
        if racy {
            inner.flush_racy(delta);
        } else {
            inner.flush(delta);
        }
    }
    // LIFO: by the time the outer scope flushes, this thread's own
    // inner flush must already be visible to itself (coherence).
    assert!(
        inner.total.load(Ordering::Relaxed) >= 2,
        "inner scope flushed after outer (LIFO nesting broken)"
    );
    counter += 3;
    let delta = counter - outer_baseline;
    if racy {
        outer.flush_racy(delta);
    } else {
        outer.flush(delta);
    }
}

// ---- correct-target bodies --------------------------------------------
//
// One body per modeled invariant, shared between the exhaustive tests
// and the `BENCH_model.json` emitter. Each asserts its own invariants
// and must pass under every explored schedule.

pub mod targets {
    use super::*;
    use atsq_model::check::thread;

    /// Two unsynchronized increments: the scheduler must surface both
    /// final values (asserted across schedules by the self-test).
    pub fn racing_increments() {
        let x = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let x = Arc::clone(&x);
                thread::spawn(move || {
                    let v = x.load(Ordering::Relaxed);
                    x.store(v + 1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let v = x.load(Ordering::Relaxed);
        assert!(v == 1 || v == 2, "impossible final value {v}");
    }

    /// Single-flight: N concurrent first queries run the factory
    /// exactly once, and no waiter is lost (a lost wakeup would
    /// surface as a model deadlock).
    pub fn single_flight() {
        let reg = Arc::new(Registry::new());
        let others: Vec<_> = (0..2)
            .map(|_| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || reg.resolve())
            })
            .collect();
        reg.resolve();
        for o in others {
            o.join().unwrap();
        }
        let g = reg.inner.lock();
        assert_eq!(g.factory_runs, 1, "single-flight ran the factory twice");
        assert_eq!(g.state, CityState::Ready);
    }

    /// Lease pinning: a city with inflight > 0 is never evicted.
    pub fn lease_pin() {
        let city = Arc::new(City::new());
        let user = {
            let city = Arc::clone(&city);
            thread::spawn(move || {
                if city.lease() {
                    city.use_leased();
                    city.end_lease();
                }
            })
        };
        let evictor = {
            let city = Arc::clone(&city);
            thread::spawn(move || {
                city.evict_if_idle();
            })
        };
        user.join().unwrap();
        evictor.join().unwrap();
    }

    /// Bounded queue: accepted items are delivered exactly once,
    /// rejection leaks no slot, close drains then ends the consumer.
    pub fn queue() {
        let q = Arc::new(Queue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(batch) = q.pop_batch(2) {
                    got.extend(batch);
                }
                got
            })
        };
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || (1..=2).filter(|&v| q.try_push(v)).collect::<Vec<u32>>())
        };
        let accepted = producer.join().unwrap();
        q.close();
        let mut popped = consumer.join().unwrap();
        popped.sort_unstable();
        assert_eq!(
            popped, accepted,
            "delivered items differ from accepted items"
        );
    }

    /// Counter scopes: LIFO nesting per thread, and cross-thread
    /// flushes into shared sinks sum exactly.
    pub fn counter_scopes() {
        let outer = Arc::new(Sink::new());
        let inner = Arc::new(Sink::new());
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let o = Arc::clone(&outer);
                let i = Arc::clone(&inner);
                thread::spawn(move || scoped_worker(&o, &i, false))
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(
            outer.total.load(Ordering::Relaxed),
            12,
            "outer flushes lost"
        );
        assert_eq!(inner.total.load(Ordering::Relaxed), 4, "inner flushes lost");
    }

    /// Release/acquire publication: an Acquire load that sees the flag
    /// must also see the data written before the Release store.
    pub fn publish_release_acquire() {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let producer = {
            let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
            thread::spawn(move || {
                data.store(42, Ordering::Relaxed);
                // ordering: Release — publishes the data store above.
                flag.store(1, Ordering::Release);
            })
        };
        // ordering: Acquire — pairs with the Release store.
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "acquire read the flag but not the published data"
            );
        }
        producer.join().unwrap();
    }
}
