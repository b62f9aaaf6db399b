//! A loom-lite deterministic schedule explorer.
//!
//! [`explore`] runs a closure (the "body" of one concurrent test)
//! repeatedly, once per *schedule*. Within an execution every model
//! thread is a real OS thread, but exactly one runs at a time: each
//! visible operation (atomic access, lock, wait, notify, spawn, join)
//! first passes through a *decision point* where a DFS explorer picks
//! which runnable thread continues — and, for loads, *which store the
//! load observes*. Decisions are recorded on a stack and replayed
//! depth-first until every bounded interleaving has been visited.
//!
//! What is modeled:
//!
//! - **Weak memory.** Every atomic location keeps its full store
//!   history with vector clocks. A `Relaxed`/`Acquire` load may read
//!   *any* store not superseded by coherence or happens-before, so an
//!   under-synchronized `// ordering:` annotation produces a real
//!   stale read, not a lucky pass. `Acquire` loads join the release
//!   clock of the store they read; `Release` stores publish the
//!   writer's clock; RMWs always read the latest store (C11 atomicity)
//!   and carry release sequences forward.
//! - **Mutexes with barging.** Unlock wakes all waiters; whichever is
//!   scheduled first wins the lock. Lock/unlock synchronize clocks.
//! - **Condvars with spurious wakeups.** Each execution may inject a
//!   bounded number of spurious wakeups (default 1) at `wait` sites —
//!   a `wait` not wrapped in a predicate loop will be caught.
//! - **Deadlock and livelock.** "Every live thread is blocked" is
//!   reported as a failure (this is how lost wakeups surface); a step
//!   budget catches livelocks.
//!
//! Bounding and pruning: schedules are explored with a *preemption
//! bound* (default 3 — switching away from a still-runnable thread
//! consumes budget; switching away from a blocked one is free), and a
//! *state-hash prune*: when a fresh decision point's full state
//! fingerprint (thread statuses, local-state hashes, vector clocks,
//! store histories, lock owners, preemption budget) has been seen
//! before, its alternatives are skipped — an identical state's subtree
//! is already covered by the first occurrence. Deliberate
//! non-exhaustiveness: `SeqCst` is modeled as `AcqRel` (no global
//! total order).
//!
//! Invariant violations are plain `assert!`/`panic!` in the body: the
//! first panic aborts the execution and is reported in
//! [`Report::failure`] together with the schedule index.

pub mod atomic;
mod clock;
pub mod sync;
pub mod thread;

use clock::VClock;
use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdGuard};

/// FNV-1a style mix step used for local-state hashes and fingerprints.
pub(crate) fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Exploration limits. `Default` matches the ISSUE contract:
/// preemption bound 3, one spurious wakeup per execution.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Max context switches away from a still-runnable thread.
    pub preemption_bound: usize,
    /// Max injected spurious condvar wakeups per execution.
    pub spurious_wakeups: usize,
    /// Hard cap on explored schedules (sets `Report::truncated`).
    pub max_schedules: u64,
    /// Per-execution step budget (livelock guard).
    pub max_steps: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            preemption_bound: 3,
            spurious_wakeups: 1,
            max_schedules: 50_000,
            max_steps: 50_000,
        }
    }
}

/// Outcome of an [`explore`] run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Target name (for `BENCH_model.json` and failure messages).
    pub name: String,
    /// Executions completed (including the failing one, if any).
    pub schedules: u64,
    /// Branch alternatives skipped by the state-hash prune.
    pub pruned: u64,
    /// Deepest decision stack seen across all executions.
    pub max_depth: usize,
    /// True if `max_schedules` stopped exploration early.
    pub truncated: bool,
    /// First invariant violation / deadlock / livelock, if any.
    pub failure: Option<String>,
}

impl Report {
    /// Asserts every explored schedule passed.
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "model target `{}` failed after {} schedules: {f}",
                self.name, self.schedules
            );
        }
    }

    /// Asserts the explorer found a counterexample (broken twins).
    pub fn assert_fails(&self) -> &str {
        match &self.failure {
            Some(f) => f,
            None => panic!(
                "model target `{}` was expected to fail but {} schedules all passed \
                 (the checker has no teeth here)",
                self.name, self.schedules
            ),
        }
    }
}

/// One decision point on the DFS stack.
#[derive(Clone, Copy, Debug)]
struct Frame {
    n: u32,
    chosen: u32,
}

/// Cross-execution DFS state.
#[derive(Default)]
struct Explorer {
    stack: Vec<Frame>,
    cursor: usize,
    visited: HashSet<u64>,
    pruned: u64,
    max_depth: usize,
}

/// Advances the DFS stack to the next unexplored branch. Returns
/// false when the whole bounded tree has been exhausted.
fn advance(stack: &mut Vec<Frame>) -> bool {
    while let Some(top) = stack.last_mut() {
        if top.chosen + 1 < top.n {
            top.chosen += 1;
            return true;
        }
        stack.pop();
    }
    false
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Runnable,
    BlockedMutex(usize),
    BlockedCv(usize),
    BlockedJoin(usize),
    Finished,
}

impl Status {
    fn mix_into(self, h: &mut u64) {
        let v = match self {
            Status::Runnable => 1,
            Status::BlockedMutex(i) => 0x100 + i as u64,
            Status::BlockedCv(i) => 0x10_000 + i as u64,
            Status::BlockedJoin(i) => 0x1_000_000 + i as u64,
            Status::Finished => 2,
        };
        *h = fnv(*h, v);
    }
}

struct ThreadSt {
    status: Status,
    clock: VClock,
    /// Rolling hash of every op result this thread has seen; with a
    /// deterministic body, local state is a function of this.
    local_hash: u64,
}

/// One store in a location's modification order.
struct Store {
    val: u64,
    /// Writer's full clock at store time (visibility/supersession).
    writer: VClock,
    /// Release clock carried by this store (None for relaxed stores
    /// that do not continue a release sequence).
    release: Option<VClock>,
}

struct AtomCell {
    stores: Vec<Store>,
    /// Per-thread coherence floor: index of the newest store in
    /// modification order this thread has already read.
    read_floor: Vec<usize>,
}

impl AtomCell {
    fn floor(&self, tid: usize) -> usize {
        self.read_floor.get(tid).copied().unwrap_or(0)
    }
    fn set_floor(&mut self, tid: usize, idx: usize) {
        if self.read_floor.len() <= tid {
            self.read_floor.resize(tid + 1, 0);
        }
        if self.read_floor[tid] < idx {
            self.read_floor[tid] = idx;
        }
    }
}

struct MutexCell {
    owner: Option<usize>,
    clock: VClock,
}

/// Decision-point kinds (mixed into fingerprints so distinct kinds of
/// choices at a coincidentally-equal state do not alias).
mod kind {
    pub const SCHED: u8 = 1;
    pub const LOAD: u8 = 2;
    pub const SPURIOUS: u8 = 3;
    pub const NOTIFY: u8 = 4;
}

/// Mutable scheduler state, guarded by `Runtime::mx`.
struct Rt {
    cfg: Config,
    active: usize,
    preemptions: usize,
    spurious_left: usize,
    steps: u64,
    abort: bool,
    failure: Option<String>,
    threads: Vec<ThreadSt>,
    atomics: Vec<AtomCell>,
    mutexes: Vec<MutexCell>,
    condvars: usize,
    live_os: usize,
    explorer: Explorer,
}

impl Rt {
    fn runnable(&self, except: Option<usize>) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| Some(t) != except && self.threads[t].status == Status::Runnable)
            .collect()
    }

    fn fingerprint(&self, k: u8) -> u64 {
        let mut h = fnv(0xcbf2_9ce4_8422_2325, u64::from(k));
        h = fnv(h, self.active as u64);
        h = fnv(h, self.preemptions as u64);
        h = fnv(h, self.spurious_left as u64);
        for t in &self.threads {
            t.status.mix_into(&mut h);
            h = fnv(h, t.local_hash);
            t.clock.mix_into(&mut h);
        }
        for a in &self.atomics {
            h = fnv(h, a.stores.len() as u64);
            for s in &a.stores {
                h = fnv(h, s.val);
                s.writer.mix_into(&mut h);
                h = fnv(h, s.release.is_some() as u64);
            }
            for &f in &a.read_floor {
                h = fnv(h, f as u64);
            }
            h = fnv(h, 0x4154_4f4d); // "ATOM" separator
        }
        for m in &self.mutexes {
            h = fnv(h, m.owner.map_or(u64::MAX, |o| o as u64));
            m.clock.mix_into(&mut h);
        }
        h
    }

    fn bump_local(&mut self, me: usize, op: u64, payload: u64) {
        let t = &mut self.threads[me];
        t.local_hash = fnv(fnv(t.local_hash, op), payload);
    }
}

/// Picks a branch at a decision point: replayed from the DFS stack
/// when revisiting a prefix, otherwise branch 0 with a new frame
/// (pruned to a single branch if the state was seen before).
fn choose(rt: &mut Rt, k: u8, n: usize) -> usize {
    debug_assert!(n >= 1);
    if n == 1 {
        return 0; // forced choices are not recorded
    }
    let fp = rt.fingerprint(k);
    let ex = &mut rt.explorer;
    if ex.cursor < ex.stack.len() {
        let f = ex.stack[ex.cursor];
        ex.cursor += 1;
        return (f.chosen as usize).min(n - 1);
    }
    let n_eff = if ex.visited.contains(&fp) {
        ex.pruned += (n - 1) as u64;
        1
    } else {
        ex.visited.insert(fp);
        n as u32
    };
    ex.stack.push(Frame {
        n: n_eff,
        chosen: 0,
    });
    ex.cursor += 1;
    ex.max_depth = ex.max_depth.max(ex.stack.len());
    0
}

/// Panic payload used to unwind model threads when an execution is
/// torn down (after a failure, or a deliberate broken-twin trip).
struct AbortExecution;

thread_local! {
    pub(crate) static CTX: RefCell<Option<(Arc<Runtime>, usize)>> = const { RefCell::new(None) };
}

pub(crate) fn ctx() -> (Arc<Runtime>, usize) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("atsq-model primitive used outside `check::explore`")
    })
}

fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Installs (once) a panic hook that silences panics raised inside
/// model threads — they are caught, recorded in the report, and
/// re-surfaced by `Report::assert_ok`, so the default stderr spew
/// would only drown the output of broken-twin tests.
fn install_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !in_model() {
                prev(info);
            }
        }));
    });
}

fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One execution's shared scheduler. All model OS threads hold an
/// `Arc<Runtime>`; exactly one is *active* at any instant, the rest
/// park on `cv` until the explorer hands them the token.
pub(crate) struct Runtime {
    mx: StdMutex<Rt>,
    cv: StdCondvar,
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Runtime {
    fn new(cfg: Config, explorer: Explorer) -> Runtime {
        Runtime {
            mx: StdMutex::new(Rt {
                cfg,
                active: 0,
                preemptions: 0,
                spurious_left: cfg.spurious_wakeups,
                steps: 0,
                abort: false,
                failure: None,
                threads: Vec::new(),
                atomics: Vec::new(),
                mutexes: Vec::new(),
                condvars: 0,
                live_os: 0,
                explorer,
            }),
            cv: StdCondvar::new(),
            handles: StdMutex::new(Vec::new()),
        }
    }

    fn lock_rt(&self) -> StdGuard<'_, Rt> {
        self.mx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a failure, tears the execution down, and unwinds the
    /// calling model thread.
    fn fail_locked(&self, mut rt: StdGuard<'_, Rt>, msg: String) -> ! {
        if rt.failure.is_none() {
            rt.failure = Some(msg);
        }
        rt.abort = true;
        self.cv.notify_all();
        drop(rt);
        std::panic::panic_any(AbortExecution)
    }

    fn abort_if_needed<'a>(&self, rt: StdGuard<'a, Rt>) -> StdGuard<'a, Rt> {
        if rt.abort {
            drop(rt);
            std::panic::panic_any(AbortExecution)
        }
        rt
    }

    /// Parks the calling thread until the scheduler makes it active
    /// (and runnable) again, or the execution aborts.
    fn park_until_active<'a>(&'a self, mut rt: StdGuard<'a, Rt>, me: usize) -> StdGuard<'a, Rt> {
        loop {
            rt = self.abort_if_needed(rt);
            if rt.active == me && rt.threads[me].status == Status::Runnable {
                return rt;
            }
            rt = self
                .cv
                .wait(rt)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// The calling thread is no longer runnable: hand the token to a
    /// chosen runnable thread (a free switch — no preemption cost) and
    /// park. Reports a deadlock if nothing is runnable.
    fn surrender_and_park<'a>(&'a self, mut rt: StdGuard<'a, Rt>, me: usize) -> StdGuard<'a, Rt> {
        let cands = rt.runnable(Some(me));
        if cands.is_empty() {
            let live: Vec<usize> = (0..rt.threads.len())
                .filter(|&t| rt.threads[t].status != Status::Finished)
                .collect();
            self.fail_locked(
                rt,
                format!("deadlock: all live threads {live:?} are blocked"),
            );
        }
        let c = choose(&mut rt, kind::SCHED, cands.len());
        rt.active = cands[c];
        self.cv.notify_all();
        self.park_until_active(rt, me)
    }

    /// Scheduling decision point before every visible operation: the
    /// explorer may preempt the calling thread in favor of any other
    /// runnable thread (bounded by the preemption budget).
    pub(crate) fn yield_point(&self, me: usize) {
        let mut rt = self.lock_rt();
        rt = self.abort_if_needed(rt);
        rt.steps += 1;
        if rt.steps > rt.cfg.max_steps {
            let max = rt.cfg.max_steps;
            self.fail_locked(rt, format!("step budget {max} exceeded (livelock?)"));
        }
        let mut cands = vec![me];
        if rt.preemptions < rt.cfg.preemption_bound {
            cands.extend(rt.runnable(Some(me)));
        }
        let c = choose(&mut rt, kind::SCHED, cands.len());
        let next = cands[c];
        if next != me {
            rt.preemptions += 1;
            rt.active = next;
            self.cv.notify_all();
            let rt = self.park_until_active(rt, me);
            drop(rt);
        }
    }

    // ---- registration (construction is thread-local: no decisions) ----

    pub(crate) fn register_atomic(&self, init: u64) -> usize {
        let mut rt = self.lock_rt();
        rt.atomics.push(AtomCell {
            stores: vec![Store {
                val: init,
                writer: VClock::default(),
                release: None,
            }],
            read_floor: Vec::new(),
        });
        rt.atomics.len() - 1
    }

    pub(crate) fn register_mutex(&self) -> usize {
        let mut rt = self.lock_rt();
        rt.mutexes.push(MutexCell {
            owner: None,
            clock: VClock::default(),
        });
        rt.mutexes.len() - 1
    }

    pub(crate) fn register_condvar(&self) -> usize {
        let mut rt = self.lock_rt();
        rt.condvars += 1;
        rt.condvars - 1
    }

    // ---- atomics ----

    fn acquiring(ord: atomic::Ordering) -> bool {
        use atomic::Ordering::*;
        matches!(ord, Acquire | AcqRel | SeqCst)
    }

    fn releasing(ord: atomic::Ordering) -> bool {
        use atomic::Ordering::*;
        matches!(ord, Release | AcqRel | SeqCst)
    }

    /// A (non-RMW) load: picks among every store visible under
    /// coherence + happens-before. Branch 0 is the newest store, so
    /// the first execution of every schedule prefix is sequentially
    /// consistent.
    pub(crate) fn atomic_load(&self, me: usize, id: usize, ord: atomic::Ordering) -> u64 {
        self.yield_point(me);
        let mut rt = self.lock_rt();
        let (latest, floor) = {
            let clock = rt.threads[me].clock.clone();
            let cell = &rt.atomics[id];
            let latest = cell.stores.len() - 1;
            let hb_floor = cell
                .stores
                .iter()
                .rposition(|s| s.writer.le(&clock))
                .unwrap_or(0);
            (latest, hb_floor.max(cell.floor(me)))
        };
        let c = choose(&mut rt, kind::LOAD, latest - floor + 1);
        let idx = latest - c;
        let val = rt.atomics[id].stores[idx].val;
        let release = if Self::acquiring(ord) {
            rt.atomics[id].stores[idx].release.clone()
        } else {
            None
        };
        rt.atomics[id].set_floor(me, idx);
        if let Some(rc) = release {
            rt.threads[me].clock.join(&rc);
        }
        rt.bump_local(me, 0x4c44, val); // "LD"
        val
    }

    pub(crate) fn atomic_store(&self, me: usize, id: usize, val: u64, ord: atomic::Ordering) {
        self.yield_point(me);
        let mut rt = self.lock_rt();
        rt.threads[me].clock.tick(me);
        let wc = rt.threads[me].clock.clone();
        let release = Self::releasing(ord).then(|| wc.clone());
        let cell = &mut rt.atomics[id];
        cell.stores.push(Store {
            val,
            writer: wc,
            release,
        });
        let latest = cell.stores.len() - 1;
        cell.set_floor(me, latest);
        rt.bump_local(me, 0x5354, val); // "ST"
    }

    /// Read-modify-write: always reads the latest store in
    /// modification order (C11 atomicity), carries release sequences
    /// forward. Returns the previous value.
    pub(crate) fn atomic_rmw(
        &self,
        me: usize,
        id: usize,
        ord: atomic::Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        self.yield_point(me);
        let mut rt = self.lock_rt();
        let (old, prev_release) = {
            let cell = &rt.atomics[id];
            let last = cell.stores.last().expect("init store always present");
            (last.val, last.release.clone())
        };
        if Self::acquiring(ord) {
            if let Some(rc) = &prev_release {
                rt.threads[me].clock.join(rc);
            }
        }
        rt.threads[me].clock.tick(me);
        let wc = rt.threads[me].clock.clone();
        let release = match (Self::releasing(ord), prev_release) {
            (true, Some(mut prc)) => {
                prc.join(&wc);
                Some(prc)
            }
            (true, None) => Some(wc.clone()),
            (false, prc) => prc, // RMW continues an existing release sequence
        };
        let new = f(old);
        let cell = &mut rt.atomics[id];
        cell.stores.push(Store {
            val: new,
            writer: wc,
            release,
        });
        let latest = cell.stores.len() - 1;
        cell.set_floor(me, latest);
        rt.bump_local(me, 0x524d57, old); // "RMW"
        old
    }

    /// Compare-exchange (strong). Failure is a load of the latest
    /// store with the failure ordering.
    pub(crate) fn atomic_cas(
        &self,
        me: usize,
        id: usize,
        current: u64,
        new: u64,
        success: atomic::Ordering,
        failure: atomic::Ordering,
    ) -> Result<u64, u64> {
        self.yield_point(me);
        let mut rt = self.lock_rt();
        let (old, prev_release) = {
            let cell = &rt.atomics[id];
            let last = cell.stores.last().expect("init store always present");
            (last.val, last.release.clone())
        };
        let latest = rt.atomics[id].stores.len() - 1;
        if old != current {
            if Self::acquiring(failure) {
                if let Some(rc) = &prev_release {
                    rt.threads[me].clock.join(rc);
                }
            }
            rt.atomics[id].set_floor(me, latest);
            rt.bump_local(me, 0x434153, old); // "CAS"
            return Err(old);
        }
        if Self::acquiring(success) {
            if let Some(rc) = &prev_release {
                rt.threads[me].clock.join(rc);
            }
        }
        rt.threads[me].clock.tick(me);
        let wc = rt.threads[me].clock.clone();
        let release = match (Self::releasing(success), prev_release) {
            (true, Some(mut prc)) => {
                prc.join(&wc);
                Some(prc)
            }
            (true, None) => Some(wc.clone()),
            (false, prc) => prc,
        };
        let cell = &mut rt.atomics[id];
        cell.stores.push(Store {
            val: new,
            writer: wc,
            release,
        });
        let newest = cell.stores.len() - 1;
        cell.set_floor(me, newest);
        rt.bump_local(me, 0x434153, old);
        Ok(old)
    }

    // ---- mutex / condvar ----

    pub(crate) fn mutex_lock(&self, me: usize, mid: usize) {
        self.yield_point(me);
        let mut rt = self.lock_rt();
        loop {
            if rt.mutexes[mid].owner.is_none() {
                rt.mutexes[mid].owner = Some(me);
                // Tick on acquire: makes the *order* of critical
                // sections clock-visible, so state fingerprints can
                // never alias two schedules whose mutex-protected
                // (unhashed) data diverged.
                rt.threads[me].clock.tick(me);
                let mc = rt.mutexes[mid].clock.clone();
                rt.threads[me].clock.join(&mc);
                rt.bump_local(me, 0x4c4f434b, mid as u64); // "LOCK"
                return;
            }
            rt.threads[me].status = Status::BlockedMutex(mid);
            rt = self.surrender_and_park(rt, me);
        }
    }

    fn unlock_inner(&self, rt: &mut Rt, me: usize, mid: usize) {
        debug_assert_eq!(rt.mutexes[mid].owner, Some(me), "unlock by non-owner");
        rt.threads[me].clock.tick(me);
        let tc = rt.threads[me].clock.clone();
        rt.mutexes[mid].clock.join(&tc);
        rt.mutexes[mid].owner = None;
        // Wake every waiter to re-contend (barging semantics): the
        // scheduler decides who actually wins.
        for t in 0..rt.threads.len() {
            if rt.threads[t].status == Status::BlockedMutex(mid) {
                rt.threads[t].status = Status::Runnable;
            }
        }
        rt.bump_local(me, 0x554e4c4b, mid as u64); // "UNLK"
    }

    pub(crate) fn mutex_unlock(&self, me: usize, mid: usize) {
        self.yield_point(me);
        let mut rt = self.lock_rt();
        self.unlock_inner(&mut rt, me, mid);
    }

    pub(crate) fn condvar_wait(&self, me: usize, cvid: usize, mid: usize) {
        self.yield_point(me);
        let mut rt = self.lock_rt();
        let mut spurious = false;
        if rt.spurious_left > 0 && choose(&mut rt, kind::SPURIOUS, 2) == 1 {
            rt.spurious_left -= 1;
            spurious = true;
        }
        self.unlock_inner(&mut rt, me, mid);
        if !spurious {
            rt.threads[me].status = Status::BlockedCv(cvid);
            rt = self.surrender_and_park(rt, me);
        }
        drop(rt);
        // Re-acquire, contending with everyone else — other threads
        // may run (and retake the lock) between wakeup and return.
        self.mutex_lock(me, mid);
    }

    pub(crate) fn condvar_notify(&self, me: usize, cvid: usize, all: bool) {
        self.yield_point(me);
        let mut rt = self.lock_rt();
        let waiters: Vec<usize> = (0..rt.threads.len())
            .filter(|&t| rt.threads[t].status == Status::BlockedCv(cvid))
            .collect();
        if waiters.is_empty() {
            rt.bump_local(me, 0x4e544659, 0); // "NTFY"
            return;
        }
        if all {
            for &w in &waiters {
                rt.threads[w].status = Status::Runnable;
            }
        } else {
            let c = choose(&mut rt, kind::NOTIFY, waiters.len());
            rt.threads[waiters[c]].status = Status::Runnable;
        }
        rt.bump_local(me, 0x4e544659, waiters.len() as u64);
    }

    // ---- threads ----

    /// Allocates a model thread id for a child (spawn decision point
    /// included). The child starts runnable but not active.
    pub(crate) fn alloc_thread(&self, parent: usize) -> usize {
        self.yield_point(parent);
        let mut rt = self.lock_rt();
        let tid = rt.threads.len();
        rt.threads[parent].clock.tick(parent);
        let mut child_clock = rt.threads[parent].clock.clone();
        child_clock.tick(tid);
        rt.threads.push(ThreadSt {
            status: Status::Runnable,
            clock: child_clock,
            local_hash: fnv(0x544944, tid as u64), // "TID"
        });
        rt.live_os += 1;
        rt.bump_local(parent, 0x5350574e, tid as u64); // "SPWN"
        tid
    }

    pub(crate) fn track_handle(&self, h: std::thread::JoinHandle<()>) {
        self.handles
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(h);
    }

    /// First thing a model OS thread does: park until scheduled.
    pub(crate) fn enter_thread(&self, me: usize) {
        let rt = self.lock_rt();
        let rt = self.park_until_active(rt, me);
        drop(rt);
    }

    pub(crate) fn join_thread(&self, me: usize, tid: usize) {
        self.yield_point(me);
        let mut rt = self.lock_rt();
        loop {
            if rt.threads[tid].status == Status::Finished {
                let c = rt.threads[tid].clock.clone();
                rt.threads[me].clock.join(&c);
                rt.bump_local(me, 0x4a4f494e, tid as u64); // "JOIN"
                return;
            }
            rt.threads[me].status = Status::BlockedJoin(tid);
            rt = self.surrender_and_park(rt, me);
        }
    }

    /// Normal completion of a model thread's body: wake joiners and
    /// hand the token onward.
    pub(crate) fn finish_thread(&self, me: usize) {
        let mut rt = self.lock_rt();
        rt.threads[me].status = Status::Finished;
        for t in 0..rt.threads.len() {
            if rt.threads[t].status == Status::BlockedJoin(me) {
                rt.threads[t].status = Status::Runnable;
            }
        }
        if rt.abort {
            self.cv.notify_all();
            return;
        }
        let cands = rt.runnable(None);
        if cands.is_empty() {
            if rt.threads.iter().any(|t| t.status != Status::Finished) {
                let live: Vec<usize> = (0..rt.threads.len())
                    .filter(|&t| rt.threads[t].status != Status::Finished)
                    .collect();
                if rt.failure.is_none() {
                    rt.failure = Some(format!(
                        "deadlock: threads {live:?} blocked with no runner left"
                    ));
                }
                rt.abort = true;
            }
            self.cv.notify_all();
            return;
        }
        let c = choose(&mut rt, kind::SCHED, cands.len());
        rt.active = cands[c];
        self.cv.notify_all();
    }

    /// A model thread's body panicked: record the failure (unless this
    /// is the teardown unwind) and tear the execution down.
    pub(crate) fn finish_panicked(&self, me: usize, payload: Box<dyn std::any::Any + Send>) {
        let mut rt = self.lock_rt();
        rt.threads[me].status = Status::Finished;
        if !payload.is::<AbortExecution>() && rt.failure.is_none() {
            rt.failure = Some(payload_msg(payload.as_ref()));
        }
        rt.abort = true;
        self.cv.notify_all();
    }

    /// Last thing a model OS thread does before exiting.
    pub(crate) fn os_thread_exited(&self) {
        let mut rt = self.lock_rt();
        rt.live_os -= 1;
        self.cv.notify_all();
    }
}

/// Runs `body` under every bounded interleaving. See module docs.
pub fn explore<F>(name: &str, cfg: Config, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let mut explorer = Explorer::default();
    let mut schedules = 0u64;
    let mut truncated = false;
    let failure;
    loop {
        let runtime = Arc::new(Runtime::new(cfg, std::mem::take(&mut explorer)));
        // Model thread 0 runs the body.
        {
            let mut rt = runtime.lock_rt();
            let mut clock = VClock::default();
            clock.tick(0);
            rt.threads.push(ThreadSt {
                status: Status::Runnable,
                clock,
                local_hash: fnv(0x544944, 0),
            });
            rt.active = 0;
            rt.live_os = 1;
        }
        let rt2 = Arc::clone(&runtime);
        let b = Arc::clone(&body);
        let h = std::thread::Builder::new()
            .name(format!("model-{name}-t0"))
            .spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&rt2), 0)));
                rt2.enter_thread(0);
                match catch_unwind(AssertUnwindSafe(|| b())) {
                    Ok(()) => rt2.finish_thread(0),
                    Err(p) => rt2.finish_panicked(0, p),
                }
                CTX.with(|c| *c.borrow_mut() = None);
                rt2.os_thread_exited();
            })
            .expect("spawn model root thread");
        runtime.track_handle(h);
        // Wait for every model OS thread of this execution to exit.
        {
            let mut rt = runtime.lock_rt();
            while rt.live_os > 0 {
                rt = runtime
                    .cv
                    .wait(rt)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        for h in runtime
            .handles
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
        {
            let _ = h.join();
        }
        schedules += 1;
        let mut rt = runtime.lock_rt();
        let fail_now = rt.failure.take();
        explorer = std::mem::take(&mut rt.explorer);
        drop(rt);
        if let Some(f) = fail_now {
            failure = Some(format!("schedule #{schedules}: {f}"));
            break;
        }
        if schedules >= cfg.max_schedules {
            truncated = true;
            failure = None;
            break;
        }
        if !advance(&mut explorer.stack) {
            failure = None;
            break;
        }
        explorer.cursor = 0;
    }
    Report {
        name: name.to_string(),
        schedules,
        pruned: explorer.pruned,
        max_depth: explorer.max_depth,
        truncated,
        failure,
    }
}
