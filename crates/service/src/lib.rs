//! `atsq-service` — the concurrent query-serving subsystem.
//!
//! The library crates answer one query at a time; this crate turns
//! them into a server. A [`Service`] owns an `Arc`-shared
//! [`Dataset`](atsq_types::Dataset) + [`Engine`](atsq_core::Engine) —
//! one [`GatEngine`](atsq_core::GatEngine), or a
//! [`ShardedEngine`](atsq_core::ShardedEngine) when
//! [`ServiceConfig::shards`] > 1 (immutable after build, so readers
//! need no locks) — and a fixed-size **worker pool** consuming a
//! **bounded request queue**:
//!
//! ```text
//!  clients ──submit──▶ BoundedQueue ──pop_batch──▶ workers ──▶ tickets
//!        ▲ admission       │                        │  ▲
//!        │ control         └── queue overflow ⇒     │  └─ LRU result
//!        │ (QueueFull)         rejected             │     cache
//!        └──────────────────── deadline expiry ◀────┘
//! ```
//!
//! * **Batched draining** — workers drain up to `batch_size` requests
//!   at once (one queue/cache pass per batch), coalesce duplicates of
//!   the same canonical query into a single execution, and run each
//!   remaining cache miss through the engine one after another.
//! * **Result cache** — an LRU keyed by a canonicalised query
//!   ([`CacheKey`]): order-insensitive requests hash identically no
//!   matter how the stops are permuted.
//! * **Admission control** — a full queue rejects instead of queueing
//!   unboundedly; a request whose deadline passed while queued is
//!   answered [`Response::Expired`] without touching the engine.
//! * **Observability** — [`StatsSnapshot`] reports QPS, p50/p99
//!   latency, cache hit rate, queue depth and the underlying
//!   [`EngineCounters`](atsq_core::EngineCounters). With
//!   [`ServiceConfig::tracing`] on (the default), every request gets a
//!   service-assigned id (echoed on the wire), a per-stage
//!   [`StageClock`](atsq_obs::StageClock) whose durations telescope to
//!   the end-to-end latency, and an exact per-query engine-counter
//!   delta; slow requests land in a bounded slow-query log, and the
//!   whole surface is scrapable as Prometheus text via [`metrics`].
//!
//! The [`server`] module exposes a service over newline-delimited JSON
//! on TCP; [`loadgen`] is the matching closed-loop load generator with
//! Zipf-skewed query reuse. Both back the `atsq serve` / `atsq
//! loadgen` CLI commands.
//!
//! # Quickstart
//!
//! ```
//! use atsq_datagen::{generate, CityConfig};
//! use atsq_service::{Request, Response, Service, ServiceConfig};
//! use atsq_types::{ActivitySet, Point, Query, QueryPoint};
//!
//! let dataset = generate(&CityConfig::tiny(3)).unwrap();
//! let service = Service::build(dataset, ServiceConfig::default()).unwrap();
//! let handle = service.handle();
//!
//! let some_act = handle.dataset().trajectories()[0].points[0]
//!     .activities.iter().next().unwrap();
//! let query = Query::new(vec![QueryPoint::new(
//!     Point::new(10.0, 10.0),
//!     ActivitySet::from_ids([some_act]),
//! )]).unwrap();
//!
//! match handle.call(Request::Atsq { query, k: 3 }).unwrap() {
//!     Response::Ok { results, .. } => assert!(results.len() <= 3),
//!     other => panic!("unexpected {other:?}"),
//! }
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod server;
mod service;
pub mod stats;
pub mod wire;

pub use cache::{InsertOutcome, LruCache};
pub use loadgen::{run_loadgen, run_loadgen_cities, CityWorkload, LoadgenConfig, LoadgenReport};
pub use queue::{BoundedQueue, PushError};
pub use request::{CacheKey, Request, Response};
pub use server::Server;
pub use service::{Service, ServiceConfig, ServiceHandle, StartupInfo, SubmitError, Ticket};
pub use stats::{percentile_sorted, ServiceStats, StatsSnapshot};
