//! The city registry: tenant state machine, single-flight loading,
//! leases, and memory-budgeted eviction.

use atsq_core::profile::{EngineCounters, Profiled};
use atsq_core::Engine;
use atsq_types::Dataset;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Validated name of a hosted city (tenant).
///
/// Names double as wire-protocol identifiers and on-disk directory
/// names, so they are restricted to `[A-Za-z0-9_-]`, non-empty, at most
/// 64 bytes. This keeps `--cities` directory scans and `city` fields in
/// requests free of path tricks.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CityId(String);

impl CityId {
    /// Name of the implicit city used when a request carries no `city`
    /// field and by single-city serving.
    pub const DEFAULT: &'static str = "default";

    /// Validates and wraps a city name.
    pub fn new(name: impl Into<String>) -> Result<CityId, TenantError> {
        let name = name.into();
        let ok = !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
        if ok {
            Ok(CityId(name))
        } else {
            Err(TenantError::InvalidCityName(name))
        }
    }

    /// The default city id (see [`CityId::DEFAULT`]).
    pub fn default_city() -> CityId {
        CityId(Self::DEFAULT.to_owned())
    }

    /// The city name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Lifecycle state of a hosted city.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Registered but never loaded.
    Unloaded,
    /// One thread is loading the dataset and building/loading the
    /// engine; concurrent requests wait.
    Loading,
    /// Dataset and engine are resident; queries are served.
    Ready,
    /// Was resident, then dropped by the budget accountant or an
    /// explicit unload. The next query reloads it.
    Evicted,
}

impl TenantState {
    /// Stable lower-case name (used in wire replies and metrics).
    pub fn name(&self) -> &'static str {
        match self {
            TenantState::Unloaded => "unloaded",
            TenantState::Loading => "loading",
            TenantState::Ready => "ready",
            TenantState::Evicted => "evicted",
        }
    }

    /// Numeric code for the `atsq_city_state` metric gauge
    /// (0 = unloaded, 1 = loading, 2 = ready, 3 = evicted).
    pub fn code(&self) -> u64 {
        match self {
            TenantState::Unloaded => 0,
            TenantState::Loading => 1,
            TenantState::Ready => 2,
            TenantState::Evicted => 3,
        }
    }
}

/// What a factory produces: the resident pieces of one city.
pub struct LoadedCity {
    /// The city's dataset (queries decode activity names against it).
    pub dataset: Arc<Dataset>,
    /// The serving engine built over that dataset.
    pub engine: Arc<Engine>,
    /// Whether the engine came from a validated index snapshot rather
    /// than a fresh build.
    pub loaded_from_snapshot: bool,
}

/// Builds (or rebuilds) one city's dataset + engine. Factories run with
/// **no registry lock held** and may block on disk I/O and index
/// construction; errors are strings so disk- and build-layer failures
/// both flow through unchanged.
pub type EngineFactory = Arc<dyn Fn() -> Result<LoadedCity, String> + Send + Sync>;

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantError {
    /// The name failed [`CityId::new`] validation.
    InvalidCityName(String),
    /// No city with this id is registered.
    UnknownCity(CityId),
    /// A city with this id is already registered.
    DuplicateCity(CityId),
    /// The factory failed; the city is back to a loadable state.
    LoadFailed {
        /// Which city failed to load.
        city: CityId,
        /// The factory's error.
        reason: String,
    },
    /// The operation needs a quiescent city but requests are in flight
    /// (or a load is running).
    CityBusy {
        /// Which city is busy.
        city: CityId,
        /// In-flight request count at the time of the check.
        inflight: u64,
    },
    /// The city is pinned (single-city serving) and cannot be unloaded.
    Pinned(CityId),
    /// Filesystem error while scanning a cities directory.
    Io(String),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::InvalidCityName(name) => {
                write!(f, "invalid city name `{name}` (want [A-Za-z0-9_-]{{1,64}})")
            }
            TenantError::UnknownCity(city) => write!(f, "unknown city `{city}`"),
            TenantError::DuplicateCity(city) => write!(f, "city `{city}` already registered"),
            TenantError::LoadFailed { city, reason } => {
                write!(f, "city `{city}` failed to load: {reason}")
            }
            TenantError::CityBusy { city, inflight } => {
                write!(f, "city `{city}` is busy ({inflight} requests in flight)")
            }
            TenantError::Pinned(city) => {
                write!(f, "city `{city}` is pinned and cannot be unloaded")
            }
            TenantError::Io(msg) => write!(f, "cities directory error: {msg}"),
        }
    }
}

impl std::error::Error for TenantError {}

/// RAII handle pinning one city resident for the duration of a request.
///
/// Holding a lease guarantees the engine and dataset `Arc`s stay valid
/// and — because the eviction pass skips cities with a non-zero lease
/// count — that the city is not evicted mid-request. Leases are created
/// only while the registry lock is held; dropping one is lock-free.
pub struct CityLease {
    city: CityId,
    dataset: Arc<Dataset>,
    engine: Arc<Engine>,
    inflight: Arc<AtomicU64>,
    cold: bool,
}

impl CityLease {
    /// The leased city.
    pub fn city(&self) -> &CityId {
        &self.city
    }

    /// The city's dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// The city's engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Whether *this* resolve performed the load (cold start) rather
    /// than finding the city already resident.
    pub fn cold(&self) -> bool {
        self.cold
    }

    /// Current in-flight count for the city, including this lease.
    pub fn inflight_now(&self) -> u64 {
        // ordering: Relaxed — advisory gauge read for admission control;
        // the eviction-correctness read happens under the registry lock.
        self.inflight.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for CityLease {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CityLease")
            .field("city", &self.city)
            .field("cold", &self.cold)
            .finish_non_exhaustive()
    }
}

impl Drop for CityLease {
    fn drop(&mut self) {
        // ordering: Relaxed — leases are created under the registry
        // lock, so the eviction pass (which also holds the lock) can
        // never miss a *new* lease; a stale non-zero read merely defers
        // eviction by one pass, which is safe.
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Point-in-time description of one hosted city (for the `cities` admin
/// op and the `atsq_city_*` metric families).
#[derive(Debug, Clone)]
pub struct CityInfo {
    /// City id.
    pub city: CityId,
    /// Lifecycle state.
    pub state: TenantState,
    /// Whether the city is exempt from eviction and unload.
    pub pinned: bool,
    /// Estimated resident bytes (dataset + index components) while
    /// `Ready`, zero otherwise.
    pub resident_bytes: u64,
    /// Requests currently holding a lease on the city.
    pub inflight: u64,
    /// Queries routed to the city since registration.
    pub queries: u64,
    /// Completed loads (cold starts) since registration.
    pub loads: u64,
    /// Budget evictions since registration (explicit unloads are not
    /// counted here).
    pub evictions: u64,
    /// Total wall-clock milliseconds spent loading the city.
    pub load_ms_total: f64,
    /// Whether the most recent load came from an index snapshot.
    pub loaded_from_snapshot: bool,
    /// Engine work counters, cumulative across evict/reload cycles.
    pub counters: EngineCounters,
    /// The most recent load failure, if the last load attempt failed.
    pub last_error: Option<String>,
}

struct Entry {
    factory: EngineFactory,
    state: TenantState,
    pinned: bool,
    dataset: Option<Arc<Dataset>>,
    engine: Option<Arc<Engine>>,
    inflight: Arc<AtomicU64>,
    last_query: Instant,
    resident_bytes: u64,
    queries: u64,
    loads: u64,
    evictions: u64,
    load_nanos_total: u64,
    loaded_from_snapshot: bool,
    counters_base: EngineCounters,
    last_error: Option<String>,
}

impl Entry {
    fn new(factory: EngineFactory, pinned: bool) -> Entry {
        Entry {
            factory,
            state: TenantState::Unloaded,
            pinned,
            dataset: None,
            engine: None,
            inflight: Arc::new(AtomicU64::new(0)),
            last_query: Instant::now(),
            resident_bytes: 0,
            queries: 0,
            loads: 0,
            evictions: 0,
            load_nanos_total: 0,
            loaded_from_snapshot: false,
            counters_base: EngineCounters::default(),
            last_error: None,
        }
    }

    /// Engine counters including work folded in from evicted engines.
    fn cumulative_counters(&self) -> EngineCounters {
        match self.engine.as_ref() {
            Some(engine) => EngineCounters::sum([self.counters_base, engine.counters()]),
            None => self.counters_base,
        }
    }

    /// Folds the live engine's counters into the base (called before
    /// the engine is dropped on evict/unload).
    fn fold_counters(&mut self) {
        self.counters_base = self.cumulative_counters();
    }
}

struct Inner {
    entries: HashMap<CityId, Entry>,
}

/// An engine dropped by eviction or unload; the `Arc`s are released
/// only after the registry lock is, so a potentially large drop never
/// runs under the lock.
struct Victim {
    city: CityId,
    _dataset: Option<Arc<Dataset>>,
    _engine: Option<Arc<Engine>>,
}

type EvictHook = Arc<dyn Fn(&CityId) + Send + Sync>;

/// Hosts many named cities (dataset + engine pairs) in one process.
///
/// See the crate docs for the lifecycle; the key invariants are:
///
/// 1. **Single flight** — at most one factory invocation per city is in
///    progress; concurrent [`CityRegistry::resolve`] calls for a
///    `Loading` city block on a condition variable.
/// 2. **Leases pin** — the eviction pass never selects a city whose
///    lease count is non-zero, and leases are only created under the
///    registry lock.
/// 3. **No I/O under the lock** — factories and engine drops run with
///    the registry lock released.
pub struct CityRegistry {
    inner: Mutex<Inner>,
    cond: Condvar,
    budget_bytes: Option<u64>,
    default_city: CityId,
    evict_hook: Mutex<Option<EvictHook>>,
}

impl CityRegistry {
    /// Creates an empty registry. `memory_budget` is the estimated
    /// resident-byte ceiling across all `Ready` cities (`None` = no
    /// eviction).
    pub fn new(default_city: CityId, memory_budget: Option<u64>) -> CityRegistry {
        let inner = Mutex::new(Inner {
            entries: HashMap::new(),
        });
        inner.set_name("tenant.registry");
        let evict_hook: Mutex<Option<EvictHook>> = Mutex::new(None);
        evict_hook.set_name("tenant.evict_hook");
        CityRegistry {
            inner,
            cond: Condvar::new(),
            budget_bytes: memory_budget,
            default_city,
            evict_hook,
        }
    }

    /// One-entry registry for single-city serving: the city is named
    /// [`CityId::DEFAULT`], immediately `Ready`, pinned (never evicted
    /// or unloaded), and has no memory budget.
    pub fn single(dataset: Arc<Dataset>, engine: Arc<Engine>) -> CityRegistry {
        let registry = CityRegistry::new(CityId::default_city(), None);
        registry
            .add_resident(CityId::default_city(), dataset, engine, true)
            .expect("fresh registry cannot hold a duplicate");
        registry
    }

    /// Registers a lazily-loaded city. The factory runs on first query
    /// (and again after eviction/unload).
    pub fn add_city(&self, city: CityId, factory: EngineFactory) -> Result<(), TenantError> {
        let mut inner = self.inner.lock();
        if inner.entries.contains_key(&city) {
            return Err(TenantError::DuplicateCity(city));
        }
        inner.entries.insert(city, Entry::new(factory, false));
        Ok(())
    }

    /// Registers a city that is already resident (state `Ready`). The
    /// reload factory clones the given `Arc`s, so an unpinned resident
    /// city survives unload-then-query cycles. Like a load, admitting
    /// the city runs the eviction pass, which never selects it.
    pub fn add_resident(
        &self,
        city: CityId,
        dataset: Arc<Dataset>,
        engine: Arc<Engine>,
        pinned: bool,
    ) -> Result<(), TenantError> {
        let bytes = approx_city_bytes(&dataset, &engine);
        let factory_dataset = Arc::clone(&dataset);
        let factory_engine = Arc::clone(&engine);
        let factory: EngineFactory = Arc::new(move || {
            Ok(LoadedCity {
                dataset: Arc::clone(&factory_dataset),
                engine: Arc::clone(&factory_engine),
                loaded_from_snapshot: false,
            })
        });
        let mut inner = self.inner.lock();
        if inner.entries.contains_key(&city) {
            return Err(TenantError::DuplicateCity(city));
        }
        let mut entry = Entry::new(factory, pinned);
        entry.state = TenantState::Ready;
        entry.dataset = Some(dataset);
        entry.engine = Some(engine);
        entry.resident_bytes = bytes;
        inner.entries.insert(city.clone(), entry);
        let victims = self.collect_victims(&mut inner, Some(&city));
        drop(inner);
        self.finish_evictions(victims);
        Ok(())
    }

    /// The city used when a request names none.
    pub fn default_city(&self) -> &CityId {
        &self.default_city
    }

    /// The configured memory budget, if any.
    pub fn memory_budget(&self) -> Option<u64> {
        self.budget_bytes
    }

    /// Number of registered cities.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.entries.len()
    }

    /// Whether the registry has no cities.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Installs the eviction callback, invoked (with no registry lock
    /// held) after a city is evicted or unloaded. The service layer
    /// uses it to drop the city's result-cache partition.
    pub fn set_evict_hook(&self, hook: impl Fn(&CityId) + Send + Sync + 'static) {
        let mut slot = self.evict_hook.lock();
        *slot = Some(Arc::new(hook));
    }

    /// Resolves a city for one request, lazily loading it if needed.
    ///
    /// Returns a [`CityLease`] pinning the city resident until dropped.
    /// Concurrent calls for a city that is `Loading` wait for the one
    /// in-progress load instead of duplicating it. Every resolve runs
    /// the eviction pass, which never selects the resolved city.
    pub fn resolve(&self, city: &CityId) -> Result<CityLease, TenantError> {
        self.resolve_counted(city, true)
    }

    /// [`CityRegistry::resolve`] without counting a query against the
    /// city — for admin warm-ups and embedder accessors.
    pub fn resolve_uncounted(&self, city: &CityId) -> Result<CityLease, TenantError> {
        self.resolve_counted(city, false)
    }

    fn resolve_counted(&self, city: &CityId, count_query: bool) -> Result<CityLease, TenantError> {
        let mut inner = self.inner.lock();
        loop {
            let state = match inner.entries.get(city) {
                Some(entry) => entry.state,
                None => return Err(TenantError::UnknownCity(city.clone())),
            };
            match state {
                TenantState::Ready => {
                    let entry = inner.entries.get_mut(city).expect("checked above");
                    let lease = Self::lease_ready(entry, city, count_query, false);
                    // A lease that blocked an earlier pass may since have
                    // dropped, so the registry can still be over budget.
                    let victims = self.collect_victims(&mut inner, Some(city));
                    drop(inner);
                    self.finish_evictions(victims);
                    return Ok(lease);
                }
                TenantState::Loading => {
                    self.cond.wait(&mut inner);
                }
                TenantState::Unloaded | TenantState::Evicted => {
                    let entry = inner.entries.get_mut(city).expect("checked above");
                    entry.state = TenantState::Loading;
                    entry.last_error = None;
                    let factory = Arc::clone(&entry.factory);
                    drop(inner);
                    return self.load_and_lease(city, factory, count_query);
                }
            }
        }
    }

    /// Runs the factory with no lock held, publishes the result, wakes
    /// waiters, and runs the eviction pass.
    fn load_and_lease(
        &self,
        city: &CityId,
        factory: EngineFactory,
        count_query: bool,
    ) -> Result<CityLease, TenantError> {
        let started = Instant::now();
        let built = (factory)();
        let load_nanos = started.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock();
        let outcome = match built {
            Ok(loaded) => {
                let bytes = approx_city_bytes(&loaded.dataset, &loaded.engine);
                let entry = inner
                    .entries
                    .get_mut(city)
                    .expect("the loading thread owns this entry");
                entry.dataset = Some(loaded.dataset);
                entry.engine = Some(loaded.engine);
                entry.state = TenantState::Ready;
                entry.resident_bytes = bytes;
                entry.loads += 1;
                entry.load_nanos_total += load_nanos;
                entry.loaded_from_snapshot = loaded.loaded_from_snapshot;
                Ok(Self::lease_ready(entry, city, count_query, true))
            }
            Err(reason) => {
                let entry = inner
                    .entries
                    .get_mut(city)
                    .expect("the loading thread owns this entry");
                entry.state = TenantState::Unloaded;
                entry.last_error = Some(reason.clone());
                Err(TenantError::LoadFailed {
                    city: city.clone(),
                    reason,
                })
            }
        };
        self.cond.notify_all();
        let victims = self.collect_victims(&mut inner, Some(city));
        drop(inner);
        self.finish_evictions(victims);
        outcome
    }

    fn lease_ready(entry: &mut Entry, city: &CityId, count_query: bool, cold: bool) -> CityLease {
        if count_query {
            entry.queries += 1;
        }
        entry.last_query = Instant::now();
        // ordering: Relaxed — incremented only under the registry lock;
        // pairs with the Relaxed decrement in `CityLease::drop`, and the
        // eviction pass reads it back under the same lock.
        entry.inflight.fetch_add(1, Ordering::Relaxed);
        CityLease {
            city: city.clone(),
            dataset: Arc::clone(
                entry
                    .dataset
                    .as_ref()
                    .expect("Ready entries hold a dataset"),
            ),
            engine: Arc::clone(entry.engine.as_ref().expect("Ready entries hold an engine")),
            inflight: Arc::clone(&entry.inflight),
            cold,
        }
    }

    /// While estimated resident bytes exceed the budget, marks the
    /// least-recently-queried evictable city `Evicted` and collects its
    /// `Arc`s for release after the lock is dropped. `keep` (the city a
    /// load just brought in) is never selected, nor are pinned cities
    /// or cities with leases outstanding.
    fn collect_victims(&self, inner: &mut Inner, keep: Option<&CityId>) -> Vec<Victim> {
        let Some(budget) = self.budget_bytes else {
            return Vec::new();
        };
        let mut victims = Vec::new();
        loop {
            let resident: u64 = inner
                .entries
                .values()
                .filter(|e| e.state == TenantState::Ready)
                .map(|e| e.resident_bytes)
                .sum();
            if resident <= budget {
                break;
            }
            let lru = inner
                .entries
                .iter()
                .filter(|(id, e)| {
                    e.state == TenantState::Ready
                        && !e.pinned
                        && keep != Some(*id)
                        // ordering: Relaxed — leases are only created while
                        // this lock is held, so zero here means quiescent; a
                        // stale non-zero only defers eviction one pass.
                        && e.inflight.load(Ordering::Relaxed) == 0
                })
                .min_by_key(|(_, e)| e.last_query)
                .map(|(id, _)| id.clone());
            let Some(id) = lru else {
                break;
            };
            let entry = inner.entries.get_mut(&id).expect("selected above");
            entry.fold_counters();
            entry.state = TenantState::Evicted;
            entry.evictions += 1;
            entry.resident_bytes = 0;
            victims.push(Victim {
                city: id,
                _dataset: entry.dataset.take(),
                _engine: entry.engine.take(),
            });
        }
        victims
    }

    /// Runs the evict hook for each victim; dropping `victims` at the
    /// end releases the engine/dataset `Arc`s outside the registry lock.
    fn finish_evictions(&self, victims: Vec<Victim>) {
        for victim in &victims {
            self.notify_evicted(&victim.city);
        }
    }

    /// Calls the hook after its guard drops, so the callback may take
    /// any lock of its own (the service's result cache does).
    fn notify_evicted(&self, city: &CityId) {
        let hook = self.evict_hook.lock().clone();
        if let Some(callback) = hook {
            callback(city);
        }
    }

    /// Warms a city up without counting a query. Returns `true` if this
    /// call performed the load, `false` if it was already resident.
    pub fn load(&self, city: &CityId) -> Result<bool, TenantError> {
        let lease = self.resolve_counted(city, false)?;
        Ok(lease.cold())
    }

    /// Drops a city's engine and dataset (state becomes `Evicted`; the
    /// next query reloads). Refuses if the city is pinned, loading, or
    /// has requests in flight. Unloading a non-resident city is a no-op.
    pub fn unload(&self, city: &CityId) -> Result<(), TenantError> {
        let mut inner = self.inner.lock();
        let entry = match inner.entries.get_mut(city) {
            Some(entry) => entry,
            None => return Err(TenantError::UnknownCity(city.clone())),
        };
        match entry.state {
            TenantState::Unloaded | TenantState::Evicted => return Ok(()),
            TenantState::Loading => {
                return Err(TenantError::CityBusy {
                    city: city.clone(),
                    inflight: 0,
                })
            }
            TenantState::Ready => {}
        }
        if entry.pinned {
            return Err(TenantError::Pinned(city.clone()));
        }
        // ordering: Relaxed — read under the registry lock; see
        // `collect_victims` for why zero here means quiescent.
        let inflight = entry.inflight.load(Ordering::Relaxed);
        if inflight > 0 {
            return Err(TenantError::CityBusy {
                city: city.clone(),
                inflight,
            });
        }
        entry.fold_counters();
        entry.state = TenantState::Evicted;
        entry.resident_bytes = 0;
        let victim = Victim {
            city: city.clone(),
            _dataset: entry.dataset.take(),
            _engine: entry.engine.take(),
        };
        drop(inner);
        self.finish_evictions(vec![victim]);
        Ok(())
    }

    /// The engine of a city, if currently resident. Never triggers a
    /// load.
    pub fn peek_engine(&self, city: &CityId) -> Option<Arc<Engine>> {
        let inner = self.inner.lock();
        inner.entries.get(city).and_then(|e| e.engine.clone())
    }

    /// Current state of a city.
    pub fn state(&self, city: &CityId) -> Option<TenantState> {
        let inner = self.inner.lock();
        inner.entries.get(city).map(|e| e.state)
    }

    /// Snapshot of every hosted city, sorted by name.
    pub fn cities(&self) -> Vec<CityInfo> {
        let inner = self.inner.lock();
        let mut out: Vec<CityInfo> = inner
            .entries
            .iter()
            .map(|(id, e)| CityInfo {
                city: id.clone(),
                state: e.state,
                pinned: e.pinned,
                resident_bytes: e.resident_bytes,
                // ordering: Relaxed — display-only gauge read under the
                // registry lock.
                inflight: e.inflight.load(Ordering::Relaxed),
                queries: e.queries,
                loads: e.loads,
                evictions: e.evictions,
                load_ms_total: e.load_nanos_total as f64 / 1e6,
                loaded_from_snapshot: e.loaded_from_snapshot,
                counters: e.cumulative_counters(),
                last_error: e.last_error.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.city.cmp(&b.city));
        out
    }

    /// Total estimated resident bytes across `Ready` cities.
    pub fn resident_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .entries
            .values()
            .filter(|e| e.state == TenantState::Ready)
            .map(|e| e.resident_bytes)
            .sum()
    }
}

impl fmt::Debug for CityRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CityRegistry")
            .field("default_city", &self.default_city)
            .field("budget_bytes", &self.budget_bytes)
            .finish_non_exhaustive()
    }
}

/// Estimated resident bytes for one city: dataset heap size plus every
/// index component (in this implementation the APL and cold HICL levels
/// are resident too, so the whole [`atsq_core::Engine`] report counts).
fn approx_city_bytes(dataset: &Dataset, engine: &Engine) -> u64 {
    (dataset.approx_bytes() + engine.approx_resident_bytes()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_datagen::CityConfig;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    fn id(name: &str) -> CityId {
        CityId::new(name).unwrap()
    }

    fn tiny_dataset(seed: u64) -> Arc<Dataset> {
        Arc::new(atsq_datagen::generate(&CityConfig::tiny(seed)).unwrap())
    }

    /// Factory that builds a fresh GAT engine over a tiny dataset,
    /// counting invocations and optionally stalling to widen races.
    fn counting_factory(seed: u64, builds: Arc<AtomicUsize>, stall: Duration) -> EngineFactory {
        let dataset = tiny_dataset(seed);
        Arc::new(move || {
            // ordering: Relaxed — test-only invocation counter.
            builds.fetch_add(1, Ordering::Relaxed);
            if !stall.is_zero() {
                thread::sleep(stall);
            }
            let (engine, _) = Engine::build_gat(&dataset, 1, atsq_core::Partition::Hash, None)
                .map_err(|e| e.to_string())?;
            Ok(LoadedCity {
                dataset: Arc::clone(&dataset),
                engine: Arc::new(engine),
                loaded_from_snapshot: false,
            })
        })
    }

    #[test]
    fn city_id_validation() {
        assert!(CityId::new("tokyo").is_ok());
        assert!(CityId::new("new-york_2").is_ok());
        assert!(CityId::new("").is_err());
        assert!(CityId::new("a/b").is_err());
        assert!(CityId::new("..").is_err());
        assert!(CityId::new("x".repeat(65)).is_err());
    }

    #[test]
    fn unknown_city_is_a_structured_error() {
        let registry = CityRegistry::new(id("a"), None);
        let err = registry.resolve(&id("nowhere")).unwrap_err();
        assert_eq!(err, TenantError::UnknownCity(id("nowhere")));
        assert!(err.to_string().contains("unknown city"));
    }

    #[test]
    fn single_flight_concurrent_first_queries_build_once() {
        let builds = Arc::new(AtomicUsize::new(0));
        let registry = Arc::new(CityRegistry::new(id("a"), None));
        registry
            .add_city(
                id("a"),
                counting_factory(1, Arc::clone(&builds), Duration::from_millis(50)),
            )
            .unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let registry = Arc::clone(&registry);
            handles.push(thread::spawn(move || {
                let lease = registry.resolve(&id("a")).unwrap();
                assert!(!lease.dataset().is_empty());
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // ordering: Relaxed — all threads joined; test-only read.
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let info = &registry.cities()[0];
        assert_eq!(info.state, TenantState::Ready);
        assert_eq!(info.loads, 1);
        assert_eq!(info.queries, 8);
        assert!(info.resident_bytes > 0);
    }

    /// Spurious-wakeup regression for the `condvar-wait-must-loop`
    /// discipline: waiters parked on a `Loading` city re-check the
    /// state in a loop, so a storm of stray `notify_all` calls while
    /// the load is in flight must neither duplicate the build nor
    /// hand a waiter a lease on a half-loaded city.
    #[test]
    fn spurious_wakeups_do_not_break_single_flight() {
        let builds = Arc::new(AtomicUsize::new(0));
        let registry = Arc::new(CityRegistry::new(id("a"), None));
        registry
            .add_city(
                id("a"),
                counting_factory(1, Arc::clone(&builds), Duration::from_millis(50)),
            )
            .unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let registry = Arc::clone(&registry);
            handles.push(thread::spawn(move || {
                let lease = registry.resolve(&id("a")).unwrap();
                assert!(!lease.dataset().is_empty());
            }));
        }
        // Wake every waiter repeatedly while the factory stalls: each
        // wakeup finds the state still `Loading` and must re-park.
        for _ in 0..20 {
            registry.cond.notify_all();
            thread::sleep(Duration::from_millis(3));
        }
        for h in handles {
            h.join().unwrap();
        }
        // ordering: Relaxed — all threads joined; test-only read.
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(registry.state(&id("a")), Some(TenantState::Ready));
    }

    /// Leases pin their city under eviction pressure: two threads
    /// resolve, check and drop leases across three cities under a
    /// one-byte budget, so most resolves load a city and evict every
    /// idle one, while a third thread unloads cities.
    #[test]
    fn stress_leases_pin_cities_under_eviction() {
        const THREADS: usize = 3;
        const RACE: Duration = Duration::from_secs(1);
        let names = ["a", "b", "c"];
        let registry = Arc::new(CityRegistry::new(id("a"), Some(1)));
        for (i, name) in names.iter().enumerate() {
            let dataset = tiny_dataset(30 + i as u64);
            let engine = Arc::new(Engine::Il(atsq_core::IlEngine::build(&dataset)));
            // Unloaded, so that first resolves load and the eviction
            // pass runs from the start.
            registry
                .add_resident(id(name), dataset, engine, false)
                .unwrap();
            registry.unload(&id(name)).unwrap();
        }
        // The threads race for a fixed time rather than a fixed number
        // of rounds, so the test takes as long on any host.
        let stop = Instant::now() + RACE;
        let (done, finished) = mpsc::channel();
        for t in 0..THREADS {
            let (registry, done) = (Arc::clone(&registry), done.clone());
            thread::spawn(move || {
                for round in (0..).take_while(|_| Instant::now() < stop) {
                    let city = id(names[(t + round) % names.len()]);
                    if t == THREADS - 1 {
                        // Like the budget pass, `unload` must skip a
                        // leased city.
                        let _ = registry.unload(&city);
                        continue;
                    }
                    let lease = registry.resolve(&city).unwrap();
                    let cities = registry.cities();
                    let info = cities.iter().find(|c| c.city == city).unwrap();
                    let pinned = info.state == TenantState::Ready && info.inflight >= 1;
                    assert!(pinned, "a lease on `{city}` did not pin it: {info:?}");
                    drop(lease);
                }
                done.send(()).unwrap();
            });
        }
        drop(done);
        for _ in 0..THREADS {
            // A panicking thread drops its sender; a hung one times out.
            finished
                .recv_timeout(Duration::from_secs(10))
                .expect("a stress thread failed");
        }
        assert!(
            registry.cities().iter().any(|c| c.evictions > 0),
            "nothing was evicted"
        );
    }

    /// Admitting a resident city runs the eviction pass: under a 1-byte
    /// budget each new unpinned city evicts the one before it.
    #[test]
    fn add_resident_evicts_over_budget() {
        let registry = CityRegistry::new(id("a"), Some(1));
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            let dataset = tiny_dataset(40 + i as u64);
            let engine = Arc::new(Engine::Il(atsq_core::IlEngine::build(&dataset)));
            registry
                .add_resident(id(name), dataset, engine, false)
                .unwrap();
        }
        let cities = registry.cities();
        let info = |name: &str| cities.iter().find(|c| c.city == id(name)).unwrap();
        assert_eq!(info("c").state, TenantState::Ready);
        for name in ["a", "b"] {
            assert_eq!(info(name).state, TenantState::Evicted, "{name}");
            assert_eq!(info(name).evictions, 1, "{name}");
        }
    }

    #[test]
    fn eviction_is_lru_and_never_selects_inflight_or_fresh() {
        let builds = Arc::new(AtomicUsize::new(0));
        // Budget of one byte: any two Ready cities are over budget.
        let registry = CityRegistry::new(id("a"), Some(1));
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            registry
                .add_city(
                    id(name),
                    counting_factory(i as u64 + 1, Arc::clone(&builds), Duration::ZERO),
                )
                .unwrap();
        }
        let lease_a = registry.resolve(&id("a")).unwrap();
        // `b` loads and immediately goes idle.
        drop(registry.resolve(&id("b")).unwrap());
        assert_eq!(registry.state(&id("a")), Some(TenantState::Ready));
        assert_eq!(registry.state(&id("b")), Some(TenantState::Ready));
        // Loading `c` forces an eviction pass: `a` is in flight, `c` is
        // the fresh load, so `b` is the only legal victim.
        let lease_c = registry.resolve(&id("c")).unwrap();
        assert_eq!(registry.state(&id("a")), Some(TenantState::Ready));
        assert_eq!(registry.state(&id("b")), Some(TenantState::Evicted));
        assert_eq!(registry.state(&id("c")), Some(TenantState::Ready));
        drop(lease_a);
        drop(lease_c);
        // With all leases released, reloading `b` evicts the LRU of the
        // remaining Ready cities — `a` (queried before `c`).
        drop(registry.resolve(&id("b")).unwrap());
        assert_eq!(registry.state(&id("a")), Some(TenantState::Evicted));
        let info_b = registry
            .cities()
            .into_iter()
            .find(|c| c.city == id("b"))
            .unwrap();
        assert_eq!(info_b.loads, 2);
        assert_eq!(info_b.evictions, 1);
    }

    #[test]
    fn evict_hook_fires_per_victim() {
        let evicted: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let registry = CityRegistry::new(id("a"), Some(1));
        let sink = Arc::clone(&evicted);
        registry.set_evict_hook(move |city| {
            sink.lock().push(city.as_str().to_owned());
        });
        let builds = Arc::new(AtomicUsize::new(0));
        for (i, name) in ["a", "b"].iter().enumerate() {
            registry
                .add_city(
                    id(name),
                    counting_factory(i as u64 + 10, Arc::clone(&builds), Duration::ZERO),
                )
                .unwrap();
        }
        drop(registry.resolve(&id("a")).unwrap());
        drop(registry.resolve(&id("b")).unwrap());
        assert_eq!(evicted.lock().clone(), vec!["a".to_owned()]);
    }

    /// The hook runs with no lock held — neither the registry's nor its
    /// own slot's — on both the eviction and the unload path.
    #[test]
    fn evict_hook_runs_with_no_lock_held() {
        let calls = Arc::new(AtomicUsize::new(0));
        let registry = CityRegistry::new(id("a"), Some(1));
        let seen = Arc::clone(&calls);
        registry.set_evict_hook(move |_| {
            assert_eq!(parking_lot::held_locks(), 0, "evict hook ran under a lock");
            // ordering: Relaxed — test-only call counter.
            seen.fetch_add(1, Ordering::Relaxed);
        });
        let builds = Arc::new(AtomicUsize::new(0));
        for (i, name) in ["a", "b"].iter().enumerate() {
            registry
                .add_city(
                    id(name),
                    counting_factory(i as u64 + 20, Arc::clone(&builds), Duration::ZERO),
                )
                .unwrap();
        }
        // ordering: Relaxed — single-threaded test read.
        let calls_now = || calls.load(Ordering::Relaxed);
        drop(registry.resolve(&id("a")).unwrap());
        drop(registry.resolve(&id("b")).unwrap()); // evicts `a`
        registry.unload(&id("b")).unwrap();
        assert_eq!(calls_now(), 2);
        // The pass of a resolve of a `Ready` city: `a`'s lease blocks
        // the pass of `b`'s load, and `b`'s next resolve evicts `a`.
        let lease_a = registry.resolve(&id("a")).unwrap();
        drop(registry.resolve(&id("b")).unwrap());
        drop(lease_a);
        drop(registry.resolve(&id("b")).unwrap());
        assert_eq!(calls_now(), 3, "the resolve of `b` evicts `a`");
    }

    /// A lease that blocked a load's eviction pass leaves the registry
    /// over budget; the next resolve of a `Ready` city runs the pass
    /// again and evicts the city the lease no longer pins.
    #[test]
    fn ready_resolve_evicts_what_a_blocked_pass_left() {
        let builds = Arc::new(AtomicUsize::new(0));
        let registry = CityRegistry::new(id("a"), Some(1));
        for (i, name) in ["a", "b"].iter().enumerate() {
            registry
                .add_city(
                    id(name),
                    counting_factory(i as u64 + 50, Arc::clone(&builds), Duration::ZERO),
                )
                .unwrap();
        }
        let lease_a = registry.resolve(&id("a")).unwrap();
        drop(registry.resolve(&id("b")).unwrap());
        assert_eq!(registry.state(&id("a")), Some(TenantState::Ready));
        assert_eq!(registry.state(&id("b")), Some(TenantState::Ready));
        drop(lease_a);
        drop(registry.resolve(&id("b")).unwrap());
        let cities = registry.cities();
        let info = |name: &str| cities.iter().find(|c| c.city == id(name)).unwrap();
        assert_eq!(info("a").state, TenantState::Evicted);
        assert_eq!(info("a").evictions, 1);
        assert_eq!(info("b").state, TenantState::Ready);
        assert_eq!(info("b").loads, 1);
    }

    #[test]
    fn unload_then_query_reloads() {
        let builds = Arc::new(AtomicUsize::new(0));
        let registry = CityRegistry::new(id("a"), None);
        registry
            .add_city(
                id("a"),
                counting_factory(7, Arc::clone(&builds), Duration::ZERO),
            )
            .unwrap();
        let lease = registry.resolve(&id("a")).unwrap();
        assert!(lease.cold());
        // Unload must refuse while the lease is live.
        assert!(matches!(
            registry.unload(&id("a")),
            Err(TenantError::CityBusy { inflight: 1, .. })
        ));
        drop(lease);
        registry.unload(&id("a")).unwrap();
        assert_eq!(registry.state(&id("a")), Some(TenantState::Evicted));
        assert!(registry.peek_engine(&id("a")).is_none());
        // Unloading again is a no-op.
        registry.unload(&id("a")).unwrap();
        let lease = registry.resolve(&id("a")).unwrap();
        assert!(lease.cold());
        // ordering: Relaxed — single-threaded test read.
        assert_eq!(builds.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pinned_city_survives_budget_pressure_and_refuses_unload() {
        let dataset = tiny_dataset(3);
        let (engine, _) = Engine::build_gat(&dataset, 1, atsq_core::Partition::Hash, None).unwrap();
        let registry = CityRegistry::new(id("pinned"), Some(1));
        registry
            .add_resident(id("pinned"), Arc::clone(&dataset), Arc::new(engine), true)
            .unwrap();
        let builds = Arc::new(AtomicUsize::new(0));
        registry
            .add_city(
                id("other"),
                counting_factory(4, Arc::clone(&builds), Duration::ZERO),
            )
            .unwrap();
        drop(registry.resolve(&id("other")).unwrap());
        assert_eq!(registry.state(&id("pinned")), Some(TenantState::Ready));
        assert_eq!(
            registry.unload(&id("pinned")),
            Err(TenantError::Pinned(id("pinned")))
        );
    }

    #[test]
    fn failed_load_reports_and_allows_retry() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let dataset = tiny_dataset(5);
        let counter = Arc::clone(&attempts);
        let factory: EngineFactory = Arc::new(move || {
            // ordering: Relaxed — test-only attempt counter.
            if counter.fetch_add(1, Ordering::Relaxed) == 0 {
                return Err("disk on fire".to_owned());
            }
            let (engine, _) = Engine::build_gat(&dataset, 1, atsq_core::Partition::Hash, None)
                .map_err(|e| e.to_string())?;
            Ok(LoadedCity {
                dataset: Arc::clone(&dataset),
                engine: Arc::new(engine),
                loaded_from_snapshot: false,
            })
        });
        let registry = CityRegistry::new(id("a"), None);
        registry.add_city(id("a"), factory).unwrap();
        let err = registry.resolve(&id("a")).unwrap_err();
        assert!(matches!(err, TenantError::LoadFailed { .. }));
        let info = &registry.cities()[0];
        assert_eq!(info.state, TenantState::Unloaded);
        assert_eq!(info.last_error.as_deref(), Some("disk on fire"));
        // The next query retries and succeeds.
        let lease = registry.resolve(&id("a")).unwrap();
        assert!(lease.cold());
    }

    #[test]
    fn single_registry_is_pinned_default() {
        let dataset = tiny_dataset(6);
        let (engine, _) = Engine::build_gat(&dataset, 1, atsq_core::Partition::Hash, None).unwrap();
        let registry = CityRegistry::single(Arc::clone(&dataset), Arc::new(engine));
        assert_eq!(registry.default_city(), &CityId::default_city());
        let lease = registry.resolve(&CityId::default_city()).unwrap();
        assert!(!lease.cold());
        let info = &registry.cities()[0];
        assert!(info.pinned);
        assert_eq!(info.state, TenantState::Ready);
        assert!(info.resident_bytes > 0);
    }
}
