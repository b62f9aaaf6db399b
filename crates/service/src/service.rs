//! The [`Service`]: city registry, worker pool, cache and admission.

use crate::cache::LruCache;
use crate::queue::{BoundedQueue, PushError};
use crate::request::{CacheKey, Request, Response};
use crate::stats::{ServiceStats, StatsSnapshot};
use atsq_core::{CacheOutcome, Engine, IndexCache, Partition, Profiled, QueryEngine};
use atsq_obs::{CounterScope, CounterSink, SlowEntry, SlowLog, Stage, StageClock, TraceReport};
use atsq_tenant::{CityId, CityInfo, CityLease, CityRegistry, TenantError};
use atsq_types::{Dataset, QueryResult, Result as LibResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads consuming the request queue. Zero is allowed
    /// (useful in tests: requests queue up but nothing executes).
    pub workers: usize,
    /// Bound on queued requests; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// LRU result-cache entries; zero disables caching.
    pub cache_capacity: usize,
    /// Deadline applied to requests submitted without one. `None`
    /// means such requests never expire.
    pub default_deadline: Option<Duration>,
    /// Directory of persistent index snapshots ([`Service::build`]
    /// only). When set, startup loads a validated snapshot of the GAT
    /// index instead of rebuilding it — snapshots are
    /// keyed by the dataset's content hash, so a stale or corrupt file
    /// falls back to a fresh build whose snapshot is saved for the
    /// next start. `None` always builds in process.
    pub index_cache: Option<std::path::PathBuf>,
    /// Per-request tracing: every request carries a [`StageClock`] and
    /// a per-query counter scope, producing a [`TraceReport`] (stage
    /// breakdown + engine work delta) alongside its response. Off, a
    /// request costs no clock reads or sink allocations and the slow
    /// log stays empty.
    pub tracing: bool,
    /// Slow-query log ring size; zero disables the log.
    pub slowlog_capacity: usize,
    /// End-to-end latency at or above which a traced request is
    /// recorded in the slow log. Requests at or above the live p99
    /// bucket are recorded regardless (always-sample-the-tail), and
    /// `Duration::ZERO` records every traced request.
    pub slowlog_threshold: Duration,
    /// Per-city admission cap: requests in flight for one city beyond
    /// which further submissions to that city are refused with
    /// [`SubmitError::CityOverloaded`]. Keeps one hot tenant from
    /// monopolising the shared queue. Zero = unlimited.
    pub city_inflight_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: thread::available_parallelism().map_or(4, |n| n.get()),
            queue_capacity: 1024,
            cache_capacity: 4096,
            default_deadline: None,
            index_cache: None,
            tracing: true,
            slowlog_capacity: 128,
            slowlog_threshold: Duration::from_millis(50),
            city_inflight_cap: 0,
        }
    }
}

/// Why a submission was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — shed load and retry later.
    QueueFull,
    /// The city already has [`ServiceConfig::city_inflight_cap`]
    /// requests in flight — per-city load shedding.
    CityOverloaded(CityId),
    /// The request's city could not be resolved (unknown name, or its
    /// lazy load failed).
    City(TenantError),
    /// The service is shutting down.
    Stopped,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "request queue is full"),
            SubmitError::CityOverloaded(city) => {
                write!(f, "city `{city}` is at its in-flight request cap")
            }
            SubmitError::City(e) => write!(f, "{e}"),
            SubmitError::Stopped => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<TenantError> for SubmitError {
    fn from(e: TenantError) -> SubmitError {
        SubmitError::City(e)
    }
}

struct Job {
    /// Service-assigned request id, echoed on the wire and carried by
    /// the request's [`TraceReport`].
    id: u64,
    request: Request,
    key: CacheKey,
    /// Pins the request's city resident (and unevictable) from
    /// admission until the reply is sent, and carries the engine and
    /// dataset the workers execute against.
    lease: CityLease,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Stage timer; present iff tracing is on for this request.
    clock: Option<StageClock>,
    reply: mpsc::Sender<Reply>,
}

/// What travels back through a [`Ticket`]: the response plus, when
/// tracing is on, the request's trace.
struct Reply {
    response: Response,
    report: Option<TraceReport>,
}

/// How the served engine came to exist, surfaced on the metrics page.
#[derive(Debug, Clone, Copy, Default)]
pub struct StartupInfo {
    /// Wall-clock time of the engine build (or snapshot load) at
    /// service start. `None` when the service was started over an
    /// already-built engine ([`Service::start`]).
    pub engine_build: Option<Duration>,
    /// Whether a persistent index snapshot was loaded (`None`: no
    /// index cache was configured).
    pub loaded_from_snapshot: Option<bool>,
}

/// One city's LRU of canonicalised query → shared results.
type CachePartition = LruCache<CacheKey, Arc<Vec<QueryResult>>>;

/// Per-city result-cache partitions behind one lock (one round-trip
/// for a job's probe, one for its insert). Shared with the registry's
/// evict hook, which drops a city's partition when the city leaves
/// residence — a reloaded engine answers identically, but stale
/// entries for an unloaded city would otherwise hold its results (and
/// their memory) alive.
struct CityCaches {
    partitions: Mutex<HashMap<CityId, CachePartition>>,
    /// Capacity of each city's partition; zero disables caching.
    capacity: usize,
}

impl CityCaches {
    fn new(capacity: usize) -> CityCaches {
        let partitions = Mutex::new(HashMap::new());
        partitions.set_name("service.result_cache");
        CityCaches {
            partitions,
            capacity,
        }
    }

    /// The cached answer for `key` in `city`'s partition, if any.
    fn get(&self, city: &CityId, key: &CacheKey) -> Option<Arc<Vec<QueryResult>>> {
        let mut partitions = self.partitions.lock();
        partitions.get_mut(city)?.get(key).cloned()
    }

    fn insert(&self, city: &CityId, key: CacheKey, results: Arc<Vec<QueryResult>>) {
        let mut partitions = self.partitions.lock();
        partitions
            .entry(city.clone())
            .or_insert_with(|| LruCache::new(self.capacity))
            .insert(key, results);
    }

    fn remove(&self, city: &CityId) {
        let mut partitions = self.partitions.lock();
        partitions.remove(city);
    }
}

struct Shared {
    registry: Arc<CityRegistry>,
    default_city: CityId,
    queue: BoundedQueue<Job>,
    caches: Arc<CityCaches>,
    stats: ServiceStats,
    config: ServiceConfig,
    next_request_id: AtomicU64,
    slowlog: SlowLog,
    startup: Mutex<StartupInfo>,
}

/// A running query service: worker pool + queue + cache around one
/// immutable dataset/index pair. Created with [`Service::start`] or
/// [`Service::build`]; submit work through [`Service::handle`].
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Service {
    /// Builds the GAT engine for `dataset` — one index, verified on
    /// one lane — and starts the service. With
    /// `config.index_cache` set, the index is loaded
    /// from a validated snapshot when one exists (see
    /// [`atsq_core::IndexCache`]); otherwise it is built fresh and
    /// snapshotted for the next start.
    pub fn build(dataset: Dataset, config: ServiceConfig) -> LibResult<Self> {
        Ok(Self::build_with_outcome(dataset, config)?.0)
    }

    /// [`Service::build`], also reporting how the engine came to be:
    /// `Some(CacheOutcome)` when an index cache was configured
    /// (loaded, or rebuilt and why), `None` otherwise. This is the
    /// embedder's observability hook for cold starts — a corrupt
    /// snapshot degrades to a rebuild silently at the serving level,
    /// and the outcome is the only record of it.
    pub fn build_with_outcome(
        dataset: Dataset,
        config: ServiceConfig,
    ) -> LibResult<(Self, Option<CacheOutcome>)> {
        let cache = config.index_cache.as_ref().map(IndexCache::new);
        let t0 = Instant::now();
        let (engine, outcome) = Engine::build_gat(&dataset, 1, Partition::Hash, cache.as_ref())?;
        let startup = StartupInfo {
            engine_build: Some(t0.elapsed()),
            loaded_from_snapshot: outcome.as_ref().map(CacheOutcome::loaded),
        };
        let service = Self::start(Arc::new(dataset), Arc::new(engine), config);
        *service.shared.startup.lock() = startup;
        Ok((service, outcome))
    }

    /// Starts the worker pool over an existing dataset and engine —
    /// single-city serving as the one-entry case of
    /// [`Service::start_registry`] (the city is [`CityId::DEFAULT`],
    /// pinned resident).
    pub fn start(dataset: Arc<Dataset>, engine: Arc<Engine>, config: ServiceConfig) -> Self {
        Self::start_registry(Arc::new(CityRegistry::single(dataset, engine)), config)
    }

    /// Starts the worker pool over a registry of cities. Requests name
    /// a city (or get the registry's default); the first request to a
    /// city triggers its single-flight lazy load, and the registry's
    /// memory budget governs which cities stay resident.
    pub fn start_registry(registry: Arc<CityRegistry>, config: ServiceConfig) -> Self {
        let caches = Arc::new(CityCaches::new(config.cache_capacity));
        let hook_caches = Arc::clone(&caches);
        registry.set_evict_hook(move |city| hook_caches.remove(city));
        let default_city = registry.default_city().clone();
        let shared = Arc::new(Shared {
            registry,
            default_city,
            queue: BoundedQueue::new(config.queue_capacity),
            caches,
            stats: ServiceStats::default(),
            next_request_id: AtomicU64::new(0),
            slowlog: SlowLog::new(
                config.slowlog_capacity,
                config.slowlog_threshold.as_nanos().min(u64::MAX as u128) as u64,
            ),
            startup: Mutex::new(StartupInfo::default()),
            config: config.clone(),
        });
        shared.startup.set_name("service.startup_info");
        let workers = (0..config.workers)
            .map(|i| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("atsq-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Service { shared, workers }
    }

    /// A cheaply cloneable submission handle.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: self.shared.clone(),
        }
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.handle().stats()
    }

    /// Stops accepting work, drains the queue, joins the workers.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Drop the jobs no worker took, releasing their leases and reply
        // senders; the queue is closed, so this cannot block.
        while self.shared.queue.pop().is_some() {}
    }
}

/// Clonable submission handle to a [`Service`].
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

/// A pending response, redeemable exactly once.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Reply>,
}

impl Ticket {
    /// The service-assigned id of the submitted request. Ids are
    /// unique per service instance and start at 1.
    pub fn request_id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives. `None` if the service shut
    /// down without executing the request (no workers, or they panicked).
    pub fn wait(self) -> Option<Response> {
        self.rx.recv().ok().map(|r| r.response)
    }

    /// [`Ticket::wait`], also returning the request's [`TraceReport`]
    /// when tracing is on ([`ServiceConfig::tracing`]).
    pub fn wait_with_trace(self) -> Option<(Response, Option<TraceReport>)> {
        self.rx.recv().ok().map(|r| (r.response, r.report))
    }
}

impl ServiceHandle {
    /// Submits a request with the config's default deadline. Returns a
    /// [`Ticket`] immediately; admission control may refuse with
    /// [`SubmitError::QueueFull`].
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.submit_with_deadline(request, self.shared.config.default_deadline)
    }

    /// Submits a request to the default city that expires `deadline`
    /// after submission (`None` = never).
    pub fn submit_with_deadline(
        &self,
        request: Request,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        let lease = self.shared.registry.resolve(&self.shared.default_city)?;
        self.submit_leased(lease, request, deadline)
    }

    /// Submits a request against an already resolved city lease (see
    /// [`ServiceHandle::resolve_city`]). The lease rides the queue with
    /// the job, keeping the city unevictable until the reply is sent.
    pub fn submit_leased(
        &self,
        lease: CityLease,
        request: Request,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        // The clock starts before any submission work so the admission
        // stage covers key canonicalisation too; `fetch_add + 1` makes
        // ids start at 1 (0 reads as "no id" on the wire).
        let mut clock = self.shared.config.tracing.then(StageClock::start);
        // Per-city load shedding: the lease count includes this
        // request, so a cap of N admits at most N in flight per city.
        let cap = self.shared.config.city_inflight_cap;
        if cap > 0 && lease.inflight_now() > cap as u64 {
            self.shared.stats.record_rejected();
            return Err(SubmitError::CityOverloaded(lease.city().clone()));
        }
        // ordering: Relaxed — unique-id ticket; fetch_add's atomicity
        // alone guarantees distinct ids, no memory is published.
        let id = self.shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        let mut job = Job {
            id,
            key: request.cache_key(),
            request,
            lease,
            enqueued: now,
            deadline: deadline.map(|d| now + d),
            clock: None,
            reply: tx,
        };
        if let Some(c) = &mut clock {
            c.mark(Stage::Admission);
        }
        job.clock = clock;
        match self.shared.queue.try_push(job) {
            Ok(()) => {
                self.shared.stats.record_submitted();
                Ok(Ticket { id, rx })
            }
            Err(PushError::Full(_)) => {
                self.shared.stats.record_rejected();
                Err(SubmitError::QueueFull)
            }
            Err(PushError::Closed(_)) => Err(SubmitError::Stopped),
        }
    }

    /// Submits and blocks for the response.
    pub fn call(&self, request: Request) -> Result<Response, SubmitError> {
        self.submit(request)?.wait().ok_or(SubmitError::Stopped)
    }

    /// Snapshot of the service counters, with the served engine's work
    /// counters ([`Profiled::counters`]).
    ///
    /// Engine counters are scoped to the **default city** (all there is
    /// under single-city serving); per-city counters for every tenant
    /// are on [`ServiceHandle::cities`]. A non-resident default city
    /// reports zeros rather than forcing a load.
    pub fn stats(&self) -> StatsSnapshot {
        let engine = self
            .shared
            .registry
            .peek_engine(&self.shared.default_city)
            .map(|engine| engine.counters())
            .unwrap_or_default();
        self.shared.stats.snapshot(self.shared.queue.len(), engine)
    }

    /// The default city's dataset, loading it if necessary.
    ///
    /// # Panics
    /// If the default city's lazy load fails (cannot happen under
    /// single-city serving, where the city is always resident).
    pub fn dataset(&self) -> Arc<Dataset> {
        let lease = self
            .shared
            .registry
            .resolve_uncounted(&self.shared.default_city)
            .expect("invariant: the default city must be loadable");
        Arc::clone(lease.dataset())
    }

    /// The default city's engine, loading it if necessary.
    ///
    /// # Panics
    /// If the default city's lazy load fails (cannot happen under
    /// single-city serving, where the city is always resident).
    pub fn engine(&self) -> Arc<Engine> {
        let lease = self
            .shared
            .registry
            .resolve_uncounted(&self.shared.default_city)
            .expect("invariant: the default city must be loadable");
        Arc::clone(lease.engine())
    }

    /// The registry of hosted cities behind this service.
    pub fn registry(&self) -> &Arc<CityRegistry> {
        &self.shared.registry
    }

    /// Resolves the city a request names (`None` = the default city),
    /// triggering its single-flight lazy load if it is not resident.
    /// The lease pins the city until dropped; pass it to
    /// [`ServiceHandle::submit_leased`].
    pub fn resolve_city(&self, name: Option<&str>) -> Result<CityLease, TenantError> {
        match name {
            None => self.shared.registry.resolve(&self.shared.default_city),
            Some(name) => self.shared.registry.resolve(&CityId::new(name)?),
        }
    }

    /// Snapshot of every hosted city (admin `cities` op).
    pub fn cities(&self) -> Vec<CityInfo> {
        self.shared.registry.cities()
    }

    /// Warms a city up (admin `city_load` op). Returns whether this
    /// call performed the load.
    pub fn city_load(&self, name: &str) -> Result<bool, TenantError> {
        self.shared.registry.load(&CityId::new(name)?)
    }

    /// Drops a city's engine and dataset (admin `city_unload` op);
    /// refuses while requests are in flight.
    pub fn city_unload(&self, name: &str) -> Result<(), TenantError> {
        self.shared.registry.unload(&CityId::new(name)?)
    }

    /// The full metrics surface rendered in Prometheus text format —
    /// request/cache/queue counters, the latency histogram, per-stage
    /// aggregates, startup provenance, and the `atsq_city_*`
    /// per-tenant families. This backs the wire `metrics` op and the
    /// `atsq metrics` CLI.
    pub fn metrics_text(&self) -> String {
        // Copied out so the startup lock is not held across the
        // registry's lock in `cities()`.
        let startup = *self.shared.startup.lock();
        crate::metrics::render(
            &self.stats(),
            self.shared.slowlog.len(),
            startup,
            &self.shared.registry.cities(),
        )
    }

    /// Current slow-query log entries, oldest first. Empty unless
    /// tracing is on and [`ServiceConfig::slowlog_capacity`] is
    /// non-zero.
    pub fn slowlog(&self) -> Vec<SlowEntry> {
        self.shared.slowlog.entries()
    }

    /// Records response-serialisation time measured by a front-end
    /// (the TCP server times its encode and reports it here; encode
    /// happens after the reply, outside the per-request latency).
    pub fn record_serialize(&self, elapsed: Duration) {
        self.shared
            .stats
            .record_serialize(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        process(shared, job);
    }
}

/// Carries one job from the queue to its reply: expire it if its
/// deadline passed while queued, answer it from the cache, or run it.
fn process(shared: &Shared, mut job: Job) {
    if let Some(c) = &mut job.clock {
        c.mark(Stage::Queue);
    }
    if job.deadline.is_some_and(|d| d < Instant::now()) {
        shared.stats.record_expired();
        finish(shared, job, Response::Expired, "expired", None);
        return;
    }
    // Result caching is partitioned per city: the same query text
    // means different things (and different answers) in different
    // cities.
    let hit = shared.caches.get(job.lease.city(), &job.key);
    if let Some(c) = &mut job.clock {
        c.mark(Stage::Cache);
    }
    match hit {
        Some(results) => {
            shared.stats.record_cache_hit();
            shared.stats.record_completed(job.enqueued.elapsed());
            let ok = Response::Ok {
                results,
                cached: true,
            };
            finish(shared, job, ok, "ok", None);
        }
        None => execute(shared, job),
    }
}

/// The miss half of a pass: runs the job on its city's engine, caches
/// the result and replies. A panic is answered [`Response::Failed`].
fn execute(shared: &Shared, mut job: Job) {
    if let Some(c) = &mut job.clock {
        c.mark(Stage::Assembly);
    }
    // Each execution runs inside its own sink scope, so its engine
    // counter delta (lane threads included) stays per-query.
    let sink = shared.config.tracing.then(CounterSink::new);
    let outcome = catch_execution(|| {
        let _ctx = sink.clone().map(CounterScope::enter);
        execute_single(&job)
    });
    if let Some(c) = &mut job.clock {
        c.mark(Stage::Engine);
    }
    match outcome {
        Ok(results) => {
            shared.stats.record_cache_miss();
            let results = Arc::new(results);
            shared
                .caches
                .insert(job.lease.city(), job.key.clone(), Arc::clone(&results));
            send_ok(shared, job, results, sink.as_ref());
        }
        Err(panic_msg) => {
            shared.stats.record_failed();
            let failed = Response::Failed { error: panic_msg };
            finish(shared, job, failed, "failed", sink.as_ref());
        }
    }
}

/// Sends a freshly computed result, honouring the deadline contract end
/// to end: the pass only catches deadlines that passed while *queued*,
/// so a deadline that expired during engine execution is re-checked
/// here and answered [`Response::Expired`] instead of a stale `Ok`. The
/// result is still cached by the caller — the work was done and future
/// requests benefit.
fn send_ok(
    shared: &Shared,
    job: Job,
    results: Arc<Vec<QueryResult>>,
    sink: Option<&Arc<CounterSink>>,
) {
    if job.deadline.is_some_and(|d| d < Instant::now()) {
        shared.stats.record_expired();
        finish(shared, job, Response::Expired, "expired", sink);
        return;
    }
    shared.stats.record_completed(job.enqueued.elapsed());
    let ok = Response::Ok {
        results,
        cached: false,
    };
    finish(shared, job, ok, "ok", sink);
}

/// Terminal step of every job: stamps the reply stage, folds the trace
/// into the service-wide stage aggregates, offers it to the slow-query
/// log (forced for requests at or above the live p99 bucket), and sends
/// the response through the job's ticket.
fn finish(
    shared: &Shared,
    job: Job,
    response: Response,
    status: &'static str,
    sink: Option<&Arc<CounterSink>>,
) {
    let report = job.clock.map(|mut clock| {
        clock.mark(Stage::Reply);
        shared.stats.record_stages(&clock.stage_ns());
        let counters = sink.map(|s| s.counters()).unwrap_or_default();
        let cached = response.is_cached();
        let report = clock.finish(job.id, job.request.op(), status, cached, counters);
        let p99_floor = shared.stats.p99_floor_us().saturating_mul(1_000);
        let force = p99_floor > 0 && report.total_ns >= p99_floor;
        shared.slowlog.offer(report.clone(), force);
        report
    });
    let _ = job.reply.send(Reply { response, report });
}

/// Runs engine work, converting a panic into an error string so one
/// poisonous request cannot kill a worker thread (and, with it,
/// silently shrink the pool).
fn catch_execution<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(panic_message(&payload)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "query execution panicked".to_owned()
    }
}

fn execute_single(job: &Job) -> Vec<QueryResult> {
    let (engine, ds) = (job.lease.engine().as_ref(), job.lease.dataset().as_ref());
    let (kind, goal) = job.request.plan();
    engine.search(ds, job.request.query(), kind, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};
    use atsq_types::Query;

    fn tiny_service(config: ServiceConfig) -> (Service, Vec<Query>) {
        let dataset = generate(&CityConfig::tiny(11)).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 8);
        let service = Service::build(dataset, config).unwrap();
        (service, queries)
    }

    #[test]
    fn answers_match_direct_engine() {
        let (service, queries) = tiny_service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        for q in &queries {
            let via_service = handle
                .call(Request::Atsq {
                    query: q.clone(),
                    k: 5,
                })
                .unwrap();
            let direct = handle.engine().atsq(&handle.dataset(), q, 5);
            assert_eq!(via_service.results().unwrap(), direct.as_slice());
        }
        service.shutdown();
    }

    #[test]
    fn all_request_kinds_roundtrip() {
        let (service, queries) = tiny_service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        let q = queries[0].clone();
        let reqs = [
            Request::Atsq {
                query: q.clone(),
                k: 3,
            },
            Request::Oatsq {
                query: q.clone(),
                k: 3,
            },
            Request::AtsqRange {
                query: q.clone(),
                tau: 50.0,
            },
            Request::OatsqRange {
                query: q,
                tau: 50.0,
            },
        ];
        for r in reqs {
            let resp = handle.call(r).unwrap();
            assert!(resp.results().is_some());
        }
        let snap = handle.stats();
        assert_eq!(snap.completed, 4);
        service.shutdown();
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let (service, queries) = tiny_service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        let req = Request::Atsq {
            query: queries[0].clone(),
            k: 5,
        };
        let first = handle.call(req.clone()).unwrap();
        assert!(!first.is_cached());
        let second = handle.call(req.clone()).unwrap();
        assert!(second.is_cached());
        assert_eq!(first.results(), second.results());
        // Permuted stops of an order-insensitive query also hit.
        let mut permuted = queries[0].clone();
        permuted.points.reverse();
        let third = handle
            .call(Request::Atsq {
                query: permuted,
                k: 5,
            })
            .unwrap();
        if queries[0].points.len() > 1 {
            assert!(third.is_cached());
        }
        let snap = handle.stats();
        assert!(snap.cache_hits >= 1, "{snap:?}");
        service.shutdown();
    }

    #[test]
    fn zero_workers_overflow_rejection() {
        let (service, queries) = tiny_service(ServiceConfig {
            workers: 0,
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        let req = |i: usize| Request::Atsq {
            query: queries[i % queries.len()].clone(),
            k: 3,
        };
        let t1 = handle.submit(req(0)).unwrap();
        let _t2 = handle.submit(req(1)).unwrap();
        assert_eq!(handle.submit(req(2)).unwrap_err(), SubmitError::QueueFull);
        let snap = handle.stats();
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.queue_depth, 2);
        service.shutdown();
        // The jobs no worker took went with the service: no lease pins
        // the city, checked before a wait that would block on a leak.
        assert_eq!(handle.cities()[0].inflight, 0);
        assert!(t1.wait().is_none());
    }

    #[test]
    fn preexpired_deadline_is_reported() {
        let (service, queries) = tiny_service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        let resp = handle
            .submit_with_deadline(
                Request::Atsq {
                    query: queries[0].clone(),
                    k: 3,
                },
                Some(Duration::ZERO),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp, Response::Expired);
        assert_eq!(handle.stats().expired, 1);
        service.shutdown();
    }

    /// A deadline that passes while the engine is executing must be
    /// answered `Expired`, not a stale `Ok`. The job is handed straight
    /// to the miss half of the pass with its deadline already gone, so
    /// only the post-execution check can catch it.
    #[test]
    fn deadline_expiring_during_execution_is_reported() {
        let (service, queries) = tiny_service(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        let doomed = handle
            .submit_with_deadline(
                Request::Atsq {
                    query: queries[0].clone(),
                    k: 3,
                },
                Some(Duration::ZERO),
            )
            .unwrap();
        let job = service.shared.queue.pop().unwrap();
        execute(&service.shared, job);
        assert_eq!(doomed.wait().unwrap(), Response::Expired);
        let snap = handle.stats();
        assert_eq!(snap.expired, 1);
        // The doomed request *did* execute (captured as a cache miss):
        // this is the post-execution deadline check, not admission.
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.completed, 0);
    }

    /// The cold-start path: a service started with an index cache
    /// snapshots its index; a second start loads the snapshot and
    /// serves byte-identical answers.
    #[test]
    fn index_cache_restart_serves_identical_answers() {
        let dataset = generate(&CityConfig::tiny(31)).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 5);
        let dir = std::env::temp_dir().join(format!("atsq-service-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = || ServiceConfig {
            workers: 2,
            index_cache: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let first = Service::build(dataset.clone(), config()).unwrap();
        let answers: Vec<_> = queries
            .iter()
            .map(|q| {
                first
                    .handle()
                    .call(Request::Atsq {
                        query: q.clone(),
                        k: 5,
                    })
                    .unwrap()
            })
            .collect();
        first.shutdown();
        // "Restart": a fresh service over the same dataset + cache.
        let (second, outcome) = Service::build_with_outcome(dataset.clone(), config()).unwrap();
        assert!(outcome.is_some_and(|o| o.loaded()), "the restart loads");
        for (q, want) in queries.iter().zip(&answers) {
            let got = second
                .handle()
                .call(Request::Atsq {
                    query: q.clone(),
                    k: 5,
                })
                .unwrap();
            assert_eq!(got.results(), want.results());
        }
        second.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisonous_request_fails_without_killing_the_pool() {
        use atsq_types::{ActivitySet, Point, QueryPoint};
        let (service, queries) = tiny_service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        // 21 activities at one stop exceeds the matching kernels'
        // QueryMask cap and panics inside the engine. `Query::new`
        // refuses it, so build the query around the check.
        let toxic = Query {
            points: vec![QueryPoint::new(
                Point::new(0.0, 0.0),
                ActivitySet::from_raw(0..21),
            )],
        };
        let resp = handle.call(Request::Atsq { query: toxic, k: 3 }).unwrap();
        assert!(matches!(resp, Response::Failed { .. }), "{resp:?}");
        assert_eq!(handle.stats().failed, 1);
        // The single worker survived the panic and still serves.
        let ok = handle
            .call(Request::Atsq {
                query: queries[0].clone(),
                k: 3,
            })
            .unwrap();
        assert!(ok.results().is_some());
        service.shutdown();
    }

    #[test]
    fn submitting_after_shutdown_fails() {
        let (service, queries) = tiny_service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        service.shutdown();
        assert_eq!(
            handle
                .submit(Request::Atsq {
                    query: queries[0].clone(),
                    k: 1
                })
                .unwrap_err(),
            SubmitError::Stopped
        );
    }

    /// Eight submitters ask the same eight queries over and over with
    /// the cache off, so identical requests run at once on different
    /// workers: every answer must equal the direct engine's.
    #[test]
    fn stress_concurrent_submitters_get_correct_answers() {
        let (service, queries) = tiny_service(ServiceConfig {
            workers: 4,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| handle.engine().atsq(&handle.dataset(), q, 5))
            .collect();
        let (done, finished) = mpsc::channel();
        for t in 0..8 {
            let (handle, done) = (handle.clone(), done.clone());
            let (queries, expected) = (queries.clone(), expected.clone());
            thread::spawn(move || {
                for rep in 0..20 {
                    let i = (t + rep) % queries.len();
                    let resp = handle
                        .call(Request::Atsq {
                            query: queries[i].clone(),
                            k: 5,
                        })
                        .unwrap();
                    assert_eq!(resp.results().unwrap(), expected[i].as_slice());
                }
                done.send(()).unwrap();
            });
        }
        drop(done);
        for _ in 0..8 {
            // A panicking thread drops its sender; a hung one times out.
            finished
                .recv_timeout(Duration::from_secs(30))
                .expect("a submitter failed");
        }
        let snap = handle.stats();
        assert_eq!(snap.completed, 160);
        assert_eq!(snap.cache_misses, 160);
        service.shutdown();
    }

    /// The attribution acceptance test: with one thread draining the
    /// queue, every request's trace carries a stage breakdown that
    /// sums *exactly* to its end-to-end latency, and the per-query
    /// engine-counter deltas sum *exactly* to the engine's lifetime
    /// totals — no work unattributed, none double-counted.
    #[test]
    fn traced_requests_attribute_engine_work_exactly() {
        use atsq_core::{EngineCounters, Profiled};
        let (service, queries) = tiny_service(ServiceConfig {
            workers: 0,
            cache_capacity: 0,
            slowlog_capacity: 64,
            slowlog_threshold: Duration::ZERO,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        handle.engine().reset_counters();
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|q| {
                handle
                    .submit(Request::Atsq {
                        query: q.clone(),
                        k: 5,
                    })
                    .unwrap()
            })
            .collect();
        service.shared.queue.close();
        worker_loop(&service.shared);

        let mut ids = std::collections::HashSet::new();
        let mut summed = atsq_obs::QueryCounters::default();
        for t in tickets {
            let id = t.request_id();
            assert!(id > 0, "request ids start at 1");
            assert!(ids.insert(id), "request ids are unique");
            let (response, report) = t.wait_with_trace().unwrap();
            assert!(response.results().is_some());
            let report = report.expect("tracing on yields a report");
            assert_eq!(report.request_id, id);
            assert_eq!(report.op, "atsq");
            assert_eq!(report.status, "ok");
            assert_eq!(
                report.stage_ns.iter().sum::<u64>(),
                report.total_ns,
                "stage breakdown telescopes exactly to the trace latency"
            );
            assert!(!report.counters.is_zero(), "cache misses did engine work");
            summed = summed.add(&report.counters);
        }
        assert_eq!(
            EngineCounters::from(summed),
            handle.engine().counters(),
            "per-query deltas sum to the engine's lifetime totals"
        );
        // Threshold zero records every traced request in the slow log,
        // and the wire-facing entries keep the exact breakdown.
        let entries = handle.slowlog();
        assert_eq!(entries.len(), queries.len());
        for e in &entries {
            assert_eq!(e.report.stage_ns.iter().sum::<u64>(), e.report.total_ns);
        }
    }

    #[test]
    fn tracing_off_yields_no_reports_and_an_empty_slowlog() {
        let (service, queries) = tiny_service(ServiceConfig {
            workers: 1,
            tracing: false,
            slowlog_threshold: Duration::ZERO,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        let ticket = handle
            .submit(Request::Atsq {
                query: queries[0].clone(),
                k: 3,
            })
            .unwrap();
        assert!(ticket.request_id() > 0, "ids are assigned regardless");
        let (response, report) = ticket.wait_with_trace().unwrap();
        assert!(response.results().is_some());
        assert!(report.is_none(), "no tracing, no report");
        assert!(handle.slowlog().is_empty());
        service.shutdown();
    }

    /// A registry with `n` lazily-built in-memory cities (distinct
    /// seeds, so distinct datasets and answers), named `city0..`.
    fn lazy_registry(n: usize, budget: Option<u64>) -> Arc<CityRegistry> {
        let registry = Arc::new(CityRegistry::new(CityId::new("city0").unwrap(), budget));
        for i in 0..n {
            let city = CityId::new(format!("city{i}")).unwrap();
            registry
                .add_city(
                    city,
                    Arc::new(move || {
                        let dataset = generate(&CityConfig::tiny(100 + i as u64)).unwrap();
                        let (engine, _) = Engine::build_gat(&dataset, 1, Partition::Hash, None)
                            .map_err(|e| e.to_string())?;
                        Ok(atsq_tenant::LoadedCity {
                            dataset: Arc::new(dataset),
                            engine: Arc::new(engine),
                            loaded_from_snapshot: false,
                        })
                    }),
                )
                .unwrap();
        }
        registry
    }

    /// Every city in a multi-city service answers exactly as a
    /// dedicated single-city service over the same dataset would.
    #[test]
    fn per_city_answers_match_dedicated_servers() {
        let registry = lazy_registry(3, None);
        let service = Service::start_registry(
            registry,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let handle = service.handle();
        for i in 0..3usize {
            let name = format!("city{i}");
            let dataset = generate(&CityConfig::tiny(100 + i as u64)).unwrap();
            let queries = generate_queries(&dataset, &QueryGenConfig::default(), 4);
            let dedicated = Service::build(dataset, ServiceConfig::default()).unwrap();
            for q in &queries {
                let req = Request::Atsq {
                    query: q.clone(),
                    k: 5,
                };
                let lease = handle.resolve_city(Some(&name)).unwrap();
                let ticket = handle.submit_leased(lease, req.clone(), None).unwrap();
                let via_multi = ticket.wait().unwrap();
                let via_dedicated = dedicated.handle().call(req).unwrap();
                assert_eq!(
                    via_multi.results().unwrap(),
                    via_dedicated.results().unwrap(),
                    "{name}"
                );
            }
            dedicated.shutdown();
        }
        let infos = handle.cities();
        assert_eq!(infos.len(), 3);
        for info in &infos {
            assert_eq!(info.queries, 4, "{info:?}");
        }
        service.shutdown();
    }

    /// The result cache is partitioned by city: the same wire query
    /// never leaks another city's cached answer.
    #[test]
    fn result_cache_is_partitioned_per_city() {
        let registry = lazy_registry(2, None);
        let service = Service::start_registry(
            registry,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let handle = service.handle();
        // One query shaped to decode in both cities (raw activity id 0
        // exists in both vocabularies).
        let query = Query::new(vec![atsq_types::QueryPoint::new(
            atsq_types::Point::new(5.0, 5.0),
            atsq_types::ActivitySet::from_ids([atsq_types::ActivityId(0)]),
        )])
        .unwrap();
        let ask = |city: &str| {
            let lease = handle.resolve_city(Some(city)).unwrap();
            let ticket = handle
                .submit_leased(
                    lease,
                    Request::Atsq {
                        query: query.clone(),
                        k: 5,
                    },
                    None,
                )
                .unwrap();
            ticket.wait().unwrap()
        };
        let a1 = ask("city0");
        let b1 = ask("city1");
        // Identical request text, different datasets: different answers.
        assert_ne!(a1.results().unwrap(), b1.results().unwrap());
        // Re-asking hits each city's own partition and repeats its own
        // answer (the second round must be served cached).
        let a2 = ask("city0");
        let b2 = ask("city1");
        assert_eq!(a1.results().unwrap(), a2.results().unwrap());
        assert_eq!(b1.results().unwrap(), b2.results().unwrap());
        assert!(a2.is_cached() && b2.is_cached(), "{a2:?} {b2:?}");
        service.shutdown();
    }

    /// The per-city in-flight cap sheds load for one hot city without
    /// touching the shared queue or other cities.
    #[test]
    fn city_inflight_cap_rejects_the_hot_city_only() {
        let registry = lazy_registry(2, None);
        // No workers: submissions hold their leases in the queue.
        let service = Service::start_registry(
            registry,
            ServiceConfig {
                workers: 0,
                city_inflight_cap: 2,
                ..ServiceConfig::default()
            },
        );
        let handle = service.handle();
        let submit_to = |city: &str| {
            let dataset = handle.resolve_city(Some(city)).unwrap().dataset().clone();
            let q = generate_queries(&dataset, &QueryGenConfig::default(), 1)
                .pop()
                .unwrap();
            let lease = handle.resolve_city(Some(city)).unwrap();
            handle.submit_leased(lease, Request::Atsq { query: q, k: 3 }, None)
        };
        let _t1 = submit_to("city0").unwrap();
        let _t2 = submit_to("city0").unwrap();
        match submit_to("city0") {
            Err(SubmitError::CityOverloaded(city)) => assert_eq!(city.as_str(), "city0"),
            other => panic!("unexpected {other:?}"),
        }
        // The cold city still admits.
        assert!(submit_to("city1").is_ok());
        assert_eq!(handle.stats().rejected, 1);
        service.shutdown();
    }

    /// An unknown city surfaces as a structured submit error.
    #[test]
    fn unknown_city_is_a_submit_error() {
        let (service, _) = tiny_service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        match handle.resolve_city(Some("atlantis")) {
            Err(TenantError::UnknownCity(city)) => assert_eq!(city.as_str(), "atlantis"),
            other => panic!("unexpected {other:?}"),
        }
        // Invalid names are refused before touching the registry.
        assert!(handle.resolve_city(Some("no/slashes")).is_err());
        service.shutdown();
    }
}
