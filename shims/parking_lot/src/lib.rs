//! Offline stand-in for the subset of `parking_lot` this workspace
//! uses: non-poisoning [`Mutex`] and [`RwLock`] wrappers over
//! `std::sync`, plus a matching [`Condvar`]. A poisoned std lock (a
//! panic while held) is simply entered anyway, matching `parking_lot`
//! semantics.
//!
//! Unlike the original type-aliased version of this shim, the guards
//! are real newtypes ([`MutexGuard`], [`RwLockReadGuard`],
//! [`RwLockWriteGuard`]) with `Deref`/`DerefMut`/`Drop` — which is
//! what lets every acquisition and release flow through the dynamic
//! lock-order checker (the private `order` module): when `ATSQ_LOCK_ORDER=1` (or by
//! default under `debug_assertions`) each lock gets a stable id, a
//! global graph records which locks were held when which others were
//! acquired, and an acquisition that closes a cycle — the AB/BA
//! inversion that *could* deadlock — panics deterministically with
//! both sides' lock names instead. Release builds without the env var
//! pay one atomic load and a branch per acquisition.

mod order;

pub use order::{checking_enabled, held_locks};

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A mutual-exclusion lock whose `lock()` never returns a `Result`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    meta: order::LockMeta,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]. Releases the lock — and pops the
/// lock-order checker's held stack — on drop.
#[must_use = "if unused the Mutex will immediately unlock"]
pub struct MutexGuard<'a, T: ?Sized> {
    /// `None` only transiently inside [`Condvar::wait`], which takes
    /// the std guard out to block and puts it back on wake.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    tracker: ReleaseOnDrop,
}

/// Pops one held-lock record when dropped (after the std guard field
/// has released the lock — field order in the guard structs puts the
/// std guard first).
struct ReleaseOnDrop {
    id: usize,
    tracked: bool,
}

impl ReleaseOnDrop {
    fn acquire(meta: &order::LockMeta) -> ReleaseOnDrop {
        if !order::checking_enabled() {
            return ReleaseOnDrop {
                id: 0,
                tracked: false,
            };
        }
        let id = meta.id();
        order::on_acquire(id);
        ReleaseOnDrop { id, tracked: true }
    }
}

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        if self.tracked {
            order::on_release(self.id);
        }
    }
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            meta: order::LockMeta::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Names this lock for lock-order diagnostics (panic messages name
    /// the locks of a detected inversion). Idempotent; call once after
    /// construction.
    pub fn set_name(&self, name: &str) {
        if order::checking_enabled() {
            order::set_name(self.meta.id(), name);
        }
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Record the acquisition first: if this would deadlock on an
        // inverted order, the checker panics instead of blocking.
        let tracker = ReleaseOnDrop::acquire(&self.meta);
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            tracker,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("invariant: guard holds the lock outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("invariant: guard holds the lock outside Condvar::wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A condition variable for use with [`Mutex`], `parking_lot`-style:
/// `wait` takes the guard by `&mut` instead of by value.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Atomically releases the guard's mutex and blocks until
    /// notified; the mutex is reacquired before returning. The
    /// lock-order checker sees the release and the reacquisition, so a
    /// wait never leaves a stale held-lock record.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard
            .inner
            .take()
            .expect("invariant: guard holds the lock entering wait");
        if guard.tracker.tracked {
            order::on_release(guard.tracker.id);
        }
        let reacquired = self
            .0
            .wait(std_guard)
            .unwrap_or_else(PoisonError::into_inner);
        if guard.tracker.tracked {
            order::on_acquire(guard.tracker.id);
        }
        guard.inner = Some(reacquired);
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A reader-writer lock whose accessors never return a `Result`.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    meta: order::LockMeta,
    inner: std::sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _tracker: ReleaseOnDrop,
}

/// Exclusive-write guard for [`RwLock`].
#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _tracker: ReleaseOnDrop,
}

impl<T> RwLock<T> {
    /// Creates a new lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            meta: order::LockMeta::new(),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Names this lock for lock-order diagnostics. See
    /// [`Mutex::set_name`].
    pub fn set_name(&self, name: &str) {
        if order::checking_enabled() {
            order::set_name(self.meta.id(), name);
        }
    }

    /// Acquires a shared read lock. Read and write acquisitions feed
    /// the lock-order checker identically — a read-then-write
    /// inversion deadlocks just as surely as write-then-write.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let tracker = ReleaseOnDrop::acquire(&self.meta);
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _tracker: tracker,
        }
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let tracker = ReleaseOnDrop::acquire(&self.meta);
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _tracker: tracker,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn poisoned_mutex_is_entered() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let signaller = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cvar) = &*signaller;
            *lock.lock() = true;
            cvar.notify_one();
        });
        let (lock, cvar) = &*pair;
        let mut ready = lock.lock();
        while !*ready {
            cvar.wait(&mut ready);
        }
        assert!(*ready);
        drop(ready);
        t.join().unwrap();
    }

    #[test]
    fn held_stack_balances_across_guards() {
        if !checking_enabled() {
            return; // release-mode run without ATSQ_LOCK_ORDER
        }
        let a = Mutex::new(());
        let b = Mutex::new(());
        assert_eq!(held_locks(), 0);
        {
            let _ga = a.lock();
            assert_eq!(held_locks(), 1);
            let _gb = b.lock();
            assert_eq!(held_locks(), 2);
        }
        assert_eq!(held_locks(), 0);
    }

    /// The detector's core promise: consistent nesting is silent, the
    /// first observed inversion panics and names both locks.
    #[test]
    fn inversion_panics_with_lock_names() {
        if !checking_enabled() {
            return;
        }
        let outer = std::sync::Arc::new(Mutex::new(()));
        let inner = std::sync::Arc::new(Mutex::new(()));
        outer.set_name("test.outer");
        inner.set_name("test.inner");
        {
            let _o = outer.lock();
            let _i = inner.lock(); // records outer -> inner
        }
        let (o2, i2) = (outer.clone(), inner.clone());
        let err = std::thread::Builder::new()
            .name("inverter".into())
            .spawn(move || {
                let _i = i2.lock();
                let _o = o2.lock(); // inner -> outer: cycle
            })
            .expect("spawn")
            .join()
            .expect_err("inverted order must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order inversion"), "{msg}");
        assert!(
            msg.contains("test.outer") && msg.contains("test.inner"),
            "{msg}"
        );
    }
}
