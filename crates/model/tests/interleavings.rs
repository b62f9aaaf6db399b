//! Exhaustive-interleaving suites for the engine's concurrency
//! primitives, plus the broken twins that prove the checker has
//! teeth. Runs with `cargo test -p atsq-model --features check`.
#![cfg(feature = "check")]

mod common;

use atsq_model::check::atomic::{AtomicU64, Ordering};
use atsq_model::check::{explore, thread, Config};
use std::sync::Arc;

// ---- scheduler self-test ----------------------------------------------

/// Two racing unsynchronized increments must surface BOTH final
/// values across the explored schedules, and exploration must
/// actually branch.
#[test]
fn scheduler_self_test_surfaces_both_orders() {
    let finals: Arc<std::sync::Mutex<std::collections::BTreeSet<u64>>> = Arc::default();
    let sink = Arc::clone(&finals);
    let report = explore("self_test", Config::default(), move || {
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
        sink.lock().unwrap().insert(x.load(Ordering::Relaxed));
    });
    report.assert_ok();
    assert!(report.schedules > 1, "explorer never branched: {report:?}");
    let seen: Vec<u64> = finals.lock().unwrap().iter().copied().collect();
    assert_eq!(
        seen,
        vec![1, 2],
        "both racing orders must be observed (lost-update order AND sequential order)"
    );
}

// ---- CityRegistry single-flight ---------------------------------------

#[test]
fn single_flight_exhaustive() {
    let report = explore(
        "single_flight",
        Config::default(),
        common::targets::single_flight,
    );
    report.assert_ok();
    assert!(report.schedules >= 10, "{report:?}");
}

#[test]
fn single_flight_without_claim_twin_fails() {
    let report = explore("single_flight_no_claim", Config::default(), || {
        let reg = Arc::new(common::Registry::new());
        let other = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || reg.resolve_no_claim())
        };
        reg.resolve_no_claim();
        other.join().unwrap();
        let g = reg.inner.lock();
        assert_eq!(g.factory_runs, 1, "single-flight ran the factory twice");
    });
    let msg = report.assert_fails();
    assert!(msg.contains("factory twice"), "unexpected failure: {msg}");
}

/// The condvar-wait-must-loop rule, executed: a waiter that treats
/// any wakeup as "Ready" is broken by an injected spurious wakeup.
#[test]
fn single_flight_wait_once_twin_fails_on_spurious_wakeup() {
    let report = explore("single_flight_wait_once", Config::default(), || {
        let loader = Arc::new(common::Registry::new());
        let t = {
            let reg = Arc::clone(&loader);
            thread::spawn(move || reg.resolve())
        };
        loader.resolve_wait_once();
        t.join().unwrap();
    });
    let msg = report.assert_fails();
    assert!(msg.contains("spurious"), "unexpected failure: {msg}");
}

// ---- lease pinning vs eviction ----------------------------------------

#[test]
fn lease_pin_exhaustive() {
    let report = explore("lease_pin", Config::default(), common::targets::lease_pin);
    report.assert_ok();
    assert!(report.schedules >= 10, "{report:?}");
}

#[test]
fn lease_pin_unlocked_inflight_twin_fails() {
    let report = explore("lease_pin_unlocked", Config::default(), || {
        let city = Arc::new(common::City::new());
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
                city.evict_unlocked_check();
            })
        };
        user.join().unwrap();
        evictor.join().unwrap();
    });
    let msg = report.assert_fails();
    assert!(
        msg.contains("evicted while a lease"),
        "unexpected failure: {msg}"
    );
}

// ---- bounded queue -----------------------------------------------------

#[test]
fn queue_exhaustive() {
    let report = explore("queue", Config::default(), common::targets::queue);
    report.assert_ok();
    assert!(report.schedules >= 10, "{report:?}");
}

#[test]
fn queue_close_without_notify_twin_deadlocks() {
    let report = explore("queue_silent_close", Config::default(), || {
        let q = Arc::new(common::Queue::new(1));
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
            thread::spawn(move || (1..=2).filter(|&v| q.try_push(v)).count())
        };
        producer.join().unwrap();
        q.close_silent();
        consumer.join().unwrap();
    });
    let msg = report.assert_fails();
    assert!(msg.contains("deadlock"), "lost wakeup must deadlock: {msg}");
}

#[test]
fn queue_slot_leak_twin_fails() {
    let report = explore("queue_leaky", Config::default(), || {
        let q = Arc::new(common::Queue::new(1));
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
            thread::spawn(move || {
                (1..=2)
                    .filter(|&v| q.try_push_leaky(v))
                    .collect::<Vec<u32>>()
            })
        };
        let accepted = producer.join().unwrap();
        q.close();
        let mut popped = consumer.join().unwrap();
        popped.sort_unstable();
        assert_eq!(
            popped, accepted,
            "delivered items differ from accepted items"
        );
    });
    let msg = report.assert_fails();
    assert!(
        msg.contains("slot leak") || msg.contains("differ from accepted"),
        "unexpected failure: {msg}"
    );
}

// ---- obs counter scopes ------------------------------------------------

#[test]
fn counter_scopes_exhaustive() {
    let report = explore(
        "counter_scopes",
        Config::default(),
        common::targets::counter_scopes,
    );
    report.assert_ok();
    assert!(report.schedules >= 10, "{report:?}");
}

#[test]
fn counter_scope_racy_flush_twin_fails() {
    let report = explore("counter_scopes_racy", Config::default(), || {
        let outer = Arc::new(common::Sink::new());
        let inner = Arc::new(common::Sink::new());
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let o = Arc::clone(&outer);
                let i = Arc::clone(&inner);
                thread::spawn(move || common::scoped_worker(&o, &i, true))
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
    });
    let msg = report.assert_fails();
    assert!(msg.contains("flushes lost"), "unexpected failure: {msg}");
}

// ---- memory-ordering semantics ----------------------------------------

#[test]
fn publish_release_acquire_exhaustive() {
    let report = explore(
        "publish",
        Config::default(),
        common::targets::publish_release_acquire,
    );
    report.assert_ok();
    assert!(report.schedules >= 10, "{report:?}");
}

/// The annotations are executed, not grep-audited: weaken the Release
/// store to Relaxed and the checker exhibits the stale read.
#[test]
fn publish_with_relaxed_flag_twin_fails() {
    let report = explore("publish_relaxed", Config::default(), || {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let producer = {
            let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
            thread::spawn(move || {
                data.store(42, Ordering::Relaxed);
                flag.store(1, Ordering::Relaxed); // BROKEN: no release
            })
        };
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "acquire read the flag but not the published data"
            );
        }
        producer.join().unwrap();
    });
    let msg = report.assert_fails();
    assert!(msg.contains("published data"), "unexpected failure: {msg}");
}
