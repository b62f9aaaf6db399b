//! Model atomics with C11-style store histories.
//!
//! [`AtomicU64`] is a handle into the current execution's per-location
//! store history; every access is a scheduler decision point, and
//! loads additionally branch on *which* store they observe (see the
//! module docs on [`super`]). API mirrors the `std::sync::atomic`
//! subset the ported critical sections use.

pub use std::sync::atomic::Ordering;

use super::ctx;

/// Model stand-in for `std::sync::atomic::AtomicU64`.
pub struct AtomicU64 {
    id: usize,
}

impl AtomicU64 {
    pub fn new(v: u64) -> Self {
        let (rt, _me) = ctx();
        AtomicU64 {
            id: rt.register_atomic(v),
        }
    }

    pub fn load(&self, ord: Ordering) -> u64 {
        let (rt, me) = ctx();
        rt.atomic_load(me, self.id, ord)
    }

    pub fn store(&self, v: u64, ord: Ordering) {
        let (rt, me) = ctx();
        rt.atomic_store(me, self.id, v, ord)
    }

    pub fn swap(&self, v: u64, ord: Ordering) -> u64 {
        let (rt, me) = ctx();
        rt.atomic_rmw(me, self.id, ord, |_| v)
    }

    pub fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
        let (rt, me) = ctx();
        rt.atomic_rmw(me, self.id, ord, |old| old.wrapping_add(v))
    }

    pub fn fetch_sub(&self, v: u64, ord: Ordering) -> u64 {
        let (rt, me) = ctx();
        rt.atomic_rmw(me, self.id, ord, |old| old.wrapping_sub(v))
    }

    pub fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let (rt, me) = ctx();
        rt.atomic_cas(me, self.id, current, new, success, failure)
    }
}

impl std::fmt::Debug for AtomicU64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicU64").field("cell", &self.id).finish()
    }
}
