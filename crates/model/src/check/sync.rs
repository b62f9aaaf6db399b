//! Model `Mutex`/`Condvar` matching the `parking_lot` shim's API
//! surface (non-poisoning `lock()`, `Condvar::wait(&mut guard)`).

use super::ctx;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

/// Model mutex. The protected value lives inline; ownership and
/// blocking are arbitrated by the execution's scheduler, which also
/// explores every wake-up/barging order on contention.
pub struct Mutex<T: ?Sized> {
    id: usize,
    data: UnsafeCell<T>,
}

// SAFETY: the scheduler guarantees at most one thread holds the lock
// (and therefore touches `data`) at a time, exactly like a real mutex;
// `T: Send` is required because the value moves between threads.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: see above — `&Mutex<T>` only yields `&T`/`&mut T` through a
// guard the scheduler hands to one thread at a time.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// RAII guard for the model [`Mutex`].
#[must_use = "if unused the Mutex will immediately unlock"]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        let (rt, _me) = ctx();
        Mutex {
            id: rt.register_mutex(),
            data: UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (rt, me) = ctx();
        rt.mutex_lock(me, self.id);
        MutexGuard { lock: self }
    }

    pub fn get_mut(&mut self) -> &mut T {
        // SAFETY: `&mut self` guarantees no guard is alive.
        unsafe { &mut *self.data.get() }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only while the scheduler records
        // this thread as the mutex owner.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive ownership is scheduled.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // During an execution teardown (invariant panic or abort) the
        // scheduler is already stopping: re-entering it from unwind
        // would double-panic, and the lock state no longer matters.
        if std::thread::panicking() {
            return;
        }
        let (rt, me) = ctx();
        rt.mutex_unlock(me, self.lock.id);
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// Model condition variable (`parking_lot`-style `wait(&mut guard)`).
/// Each execution may inject a bounded number of spurious wakeups at
/// `wait` sites — callers that do not re-check their predicate in a
/// loop will be caught by the explorer.
pub struct Condvar {
    id: usize,
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    pub fn new() -> Condvar {
        let (rt, _me) = ctx();
        Condvar {
            id: rt.register_condvar(),
        }
    }

    /// Atomically releases the guard's mutex and blocks until
    /// notified (or woken spuriously); the mutex is re-acquired —
    /// contending with every other thread — before returning.
    pub fn wait<T: ?Sized>(&self, guard: &mut MutexGuard<'_, T>) {
        let (rt, me) = ctx();
        rt.condvar_wait(me, self.id, guard.lock.id);
    }

    pub fn notify_one(&self) {
        let (rt, me) = ctx();
        rt.condvar_notify(me, self.id, false);
    }

    pub fn notify_all(&self) {
        let (rt, me) = ctx();
        rt.condvar_notify(me, self.id, true);
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").field("cv", &self.id).finish()
    }
}
