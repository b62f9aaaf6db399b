//! Prometheus text rendering of the service's metric surface.
//!
//! One function, [`render`], turns a [`StatsSnapshot`] (plus the
//! per-shard busy times, the slow-log depth and the startup
//! provenance) into the exposition text served by the wire `metrics`
//! op and the `atsq metrics` CLI. Metric names are stable API:
//!
//! * `atsq_requests_*_total` — admission/terminal request counters.
//! * `atsq_cache_*` — result-cache traffic and hit rate.
//! * `atsq_queue_depth`, `atsq_inflight_requests`, `atsq_qps`,
//!   `atsq_uptime_seconds` — live serving state.
//! * `atsq_latency_seconds` — end-to-end latency histogram
//!   (power-of-two-microsecond buckets).
//! * `atsq_stage_seconds_total{stage=…}` — time per request stage
//!   ([`atsq_obs::Stage`]) across traced requests.
//! * `atsq_serialize_seconds_total` — response wire-encode time.
//! * `atsq_engine_*_total`, `atsq_engine_prune_ratio` — engine work
//!   counters (pruning attribution).
//! * `atsq_shard_candidates_total{shard=…}`,
//!   `atsq_shard_busy_seconds_total{shard=…}` — per-shard load.
//! * `atsq_router_busy_seconds_total` — time the sharded engine's
//!   shared candidate traversal spent routing (absent unsharded).
//! * `atsq_slowlog_entries` — slow-query log depth.
//! * `atsq_index_startup_seconds`, `atsq_index_loaded_from_snapshot`
//!   — cold-start provenance.
//! * `atsq_city_*{city=…}` — per-city tenancy state: lifecycle code,
//!   resident bytes, in-flight requests, query/load/eviction counters,
//!   cumulative load time, and engine candidate counts.

use crate::service::StartupInfo;
use crate::stats::StatsSnapshot;
use atsq_obs::{PromText, Stage};
use atsq_tenant::CityInfo;

/// Renders the full metrics surface in Prometheus text format.
pub fn render(
    snap: &StatsSnapshot,
    shard_busy_ns: &[u64],
    router_busy_ns: Option<u64>,
    slowlog_len: usize,
    startup: StartupInfo,
    cities: &[CityInfo],
) -> String {
    let mut p = PromText::new();

    p.counter(
        "atsq_requests_submitted_total",
        "Requests admitted to the queue.",
        snap.submitted,
    );
    p.counter(
        "atsq_requests_completed_total",
        "Requests answered ok (cache hits included).",
        snap.completed,
    );
    p.counter(
        "atsq_requests_rejected_total",
        "Requests refused at admission (queue full).",
        snap.rejected,
    );
    p.counter(
        "atsq_requests_expired_total",
        "Requests whose deadline passed before reply.",
        snap.expired,
    );
    p.counter(
        "atsq_requests_failed_total",
        "Requests whose execution panicked.",
        snap.failed,
    );
    p.counter(
        "atsq_requests_coalesced_total",
        "Requests coalesced onto an identical in-batch request.",
        snap.coalesced,
    );

    p.counter(
        "atsq_cache_hits_total",
        "Requests answered from the result cache.",
        snap.cache_hits,
    );
    p.counter(
        "atsq_cache_misses_total",
        "Requests that ran on the engine.",
        snap.cache_misses,
    );
    p.gauge(
        "atsq_cache_hit_rate",
        "Cache hits over cache-eligible completions.",
        snap.cache_hit_rate(),
    );

    p.gauge(
        "atsq_queue_depth",
        "Requests waiting in the bounded queue.",
        snap.queue_depth as f64,
    );
    p.gauge(
        "atsq_inflight_requests",
        "Admitted requests not yet terminally answered.",
        snap.inflight as f64,
    );
    p.gauge(
        "atsq_qps",
        "Completed requests per second since the previous snapshot.",
        snap.qps,
    );
    p.gauge(
        "atsq_uptime_seconds",
        "Time since the service started.",
        snap.uptime.as_secs_f64(),
    );

    p.counter(
        "atsq_batches_total",
        "Batches drained by workers.",
        snap.batches,
    );
    p.counter(
        "atsq_batched_requests_total",
        "Requests across all drained batches.",
        snap.batched_requests,
    );

    // Histogram bucket i counts completions in [2^i, 2^(i+1)) µs; the
    // exposition's inclusive `le` bound is the bucket's upper edge.
    let upper_bounds: Vec<f64> = (0..snap.latency_buckets.len())
        .map(|i| (1u128 << (i + 1)) as f64 / 1e6)
        .collect();
    p.histogram(
        "atsq_latency_seconds",
        "End-to-end (enqueue to reply) request latency.",
        &upper_bounds,
        &snap.latency_buckets,
        snap.latency_sum_us as f64 / 1e6,
        snap.completed,
    );

    p.counter_family_f64(
        "atsq_stage_seconds_total",
        "Time per request stage across traced requests.",
        "stage",
        Stage::ALL
            .iter()
            .map(|&s| (s.name().to_owned(), snap.stage_ns[s as usize] as f64 / 1e9)),
    );
    p.counter_f64(
        "atsq_serialize_seconds_total",
        "Response wire-serialisation time.",
        snap.serialize_ns as f64 / 1e9,
    );
    p.counter(
        "atsq_serialize_responses_total",
        "Responses whose serialisation was timed.",
        snap.serialize_count,
    );

    p.counter(
        "atsq_engine_candidates_total",
        "Candidate trajectories considered.",
        snap.engine.candidates,
    );
    p.counter(
        "atsq_engine_distance_evals_total",
        "Full match-distance evaluations.",
        snap.engine.distance_evals,
    );
    p.counter(
        "atsq_engine_tas_pruned_total",
        "Candidates discarded by the TAS sketch.",
        snap.engine.tas_pruned,
    );
    p.counter(
        "atsq_engine_tas_false_positives_total",
        "TAS passes later refuted by the APL.",
        snap.engine.tas_false_positives,
    );
    p.counter(
        "atsq_engine_apl_reads_total",
        "APL posting-list fetches.",
        snap.engine.apl_reads,
    );
    p.counter(
        "atsq_engine_cold_reads_total",
        "Cold HICL accesses (disk-modelled index pages).",
        snap.engine.cold_reads,
    );
    p.gauge(
        "atsq_engine_prune_ratio",
        "Fraction of candidates eliminated before a distance evaluation.",
        snap.engine.prune_ratio(),
    );

    p.counter_family(
        "atsq_shard_candidates_total",
        "Candidate trajectories per index shard.",
        "shard",
        snap.shard_candidates
            .iter()
            .enumerate()
            .map(|(i, &c)| (i.to_string(), c)),
    );
    if !shard_busy_ns.is_empty() {
        p.counter_family_f64(
            "atsq_shard_busy_seconds_total",
            "Engine busy time per index shard.",
            "shard",
            shard_busy_ns
                .iter()
                .enumerate()
                .map(|(i, &ns)| (i.to_string(), ns as f64 / 1e9)),
        );
    }
    if let Some(ns) = router_busy_ns {
        p.counter_f64(
            "atsq_router_busy_seconds_total",
            "Shared-traversal candidate routing time (sharded engine).",
            ns as f64 / 1e9,
        );
    }

    p.gauge(
        "atsq_slowlog_entries",
        "Entries currently held by the slow-query log.",
        slowlog_len as f64,
    );

    if let Some(build) = startup.engine_build {
        p.gauge(
            "atsq_index_startup_seconds",
            "Engine build or snapshot-load time at service start.",
            build.as_secs_f64(),
        );
    }
    if let Some(loaded) = startup.loaded_from_snapshot {
        p.gauge(
            "atsq_index_loaded_from_snapshot",
            "1 when the index came from a persistent snapshot, 0 when rebuilt.",
            if loaded { 1.0 } else { 0.0 },
        );
    }

    if !cities.is_empty() {
        let name = |c: &CityInfo| c.city.as_str().to_owned();
        p.gauge_family(
            "atsq_city_state",
            "City lifecycle state (0 unloaded, 1 loading, 2 ready, 3 evicted).",
            "city",
            cities.iter().map(|c| (name(c), c.state.code() as f64)),
        );
        p.gauge_family(
            "atsq_city_resident_bytes",
            "Estimated resident memory per city (dataset plus index).",
            "city",
            cities.iter().map(|c| (name(c), c.resident_bytes as f64)),
        );
        p.gauge_family(
            "atsq_city_inflight",
            "Leases currently held against each city.",
            "city",
            cities.iter().map(|c| (name(c), c.inflight as f64)),
        );
        p.counter_family(
            "atsq_city_queries_total",
            "Queries resolved against each city.",
            "city",
            cities.iter().map(|c| (name(c), c.queries)),
        );
        p.counter_family(
            "atsq_city_loads_total",
            "Successful engine loads (cold starts) per city.",
            "city",
            cities.iter().map(|c| (name(c), c.loads)),
        );
        p.counter_family(
            "atsq_city_evictions_total",
            "Budget-pressure evictions per city.",
            "city",
            cities.iter().map(|c| (name(c), c.evictions)),
        );
        p.counter_family_f64(
            "atsq_city_load_seconds_total",
            "Cumulative engine build/load time per city.",
            "city",
            cities.iter().map(|c| (name(c), c.load_ms_total / 1e3)),
        );
        p.counter_family(
            "atsq_city_candidates_total",
            "Candidate trajectories considered per city.",
            "city",
            cities.iter().map(|c| (name(c), c.counters.candidates)),
        );
    }

    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ServiceStats;
    use atsq_core::EngineCounters;
    use std::time::Duration;

    #[test]
    fn renders_every_family_with_consistent_values() {
        let stats = ServiceStats::default();
        stats.record_submitted();
        stats.record_submitted();
        stats.record_cache_miss();
        stats.record_completed(Duration::from_millis(3));
        stats.record_serialize(2_000_000);
        let snap = stats.snapshot(
            1,
            EngineCounters {
                candidates: 10,
                distance_evals: 4,
                ..EngineCounters::default()
            },
            vec![6, 4],
        );
        let text = render(
            &snap,
            &[1_500_000_000, 500_000_000],
            Some(250_000_000),
            3,
            StartupInfo {
                engine_build: Some(Duration::from_millis(250)),
                loaded_from_snapshot: Some(true),
            },
            &[],
        );
        assert!(text.contains("atsq_requests_submitted_total 2\n"), "{text}");
        assert!(text.contains("atsq_requests_completed_total 1\n"));
        assert!(text.contains("atsq_inflight_requests 1\n"));
        assert!(text.contains("atsq_queue_depth 1\n"));
        assert!(text.contains("atsq_engine_candidates_total 10\n"));
        assert!(text.contains("atsq_engine_prune_ratio 0.6\n"));
        assert!(text.contains("atsq_shard_candidates_total{shard=\"0\"} 6\n"));
        assert!(text.contains("atsq_shard_busy_seconds_total{shard=\"0\"} 1.5\n"));
        assert!(text.contains("atsq_router_busy_seconds_total 0.25\n"));
        assert!(text.contains("atsq_slowlog_entries 3\n"));
        assert!(text.contains("atsq_index_startup_seconds 0.25\n"));
        assert!(text.contains("atsq_index_loaded_from_snapshot 1\n"));
        assert!(text.contains("atsq_serialize_seconds_total 0.002\n"));
        // One latency observation at 3 ms: count 1, +Inf bucket 1, and
        // the 3 ms observation is inside the ≤4.096 ms bucket.
        assert!(text.contains("atsq_latency_seconds_count 1\n"));
        assert!(text.contains("atsq_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("atsq_latency_seconds_bucket{le=\"0.004096\"} 1\n"));
        // Every stage label appears.
        for stage in ["admission", "queue", "cache", "assembly", "engine", "reply"] {
            assert!(
                text.contains(&format!("atsq_stage_seconds_total{{stage=\"{stage}\"}}")),
                "missing stage {stage}: {text}"
            );
        }
    }

    #[test]
    fn startup_metrics_absent_without_provenance() {
        let stats = ServiceStats::default();
        let snap = stats.snapshot(0, EngineCounters::default(), vec![0]);
        let text = render(&snap, &[], None, 0, StartupInfo::default(), &[]);
        assert!(!text.contains("atsq_index_startup_seconds"));
        assert!(!text.contains("atsq_index_loaded_from_snapshot"));
        assert!(!text.contains("atsq_shard_busy_seconds_total"));
        assert!(!text.contains("atsq_router_busy_seconds_total"));
        assert!(!text.contains("atsq_city_state"));
    }

    #[test]
    fn city_families_render_per_city_samples() {
        use atsq_tenant::{CityId, TenantState};
        let stats = ServiceStats::default();
        let snap = stats.snapshot(0, EngineCounters::default(), vec![0]);
        let cities = vec![
            CityInfo {
                city: CityId::new("tokyo").unwrap(),
                state: TenantState::Ready,
                pinned: false,
                resident_bytes: 4096,
                inflight: 2,
                queries: 17,
                loads: 3,
                evictions: 2,
                load_ms_total: 1500.0,
                loaded_from_snapshot: true,
                counters: EngineCounters {
                    candidates: 9,
                    ..EngineCounters::default()
                },
                last_error: None,
            },
            CityInfo {
                city: CityId::new("osaka").unwrap(),
                state: TenantState::Evicted,
                pinned: false,
                resident_bytes: 0,
                inflight: 0,
                queries: 4,
                loads: 1,
                evictions: 1,
                load_ms_total: 200.0,
                loaded_from_snapshot: false,
                counters: EngineCounters::default(),
                last_error: None,
            },
        ];
        let text = render(&snap, &[], None, 0, StartupInfo::default(), &cities);
        assert!(
            text.contains("atsq_city_state{city=\"tokyo\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("atsq_city_state{city=\"osaka\"} 3\n"));
        assert!(text.contains("atsq_city_resident_bytes{city=\"tokyo\"} 4096\n"));
        assert!(text.contains("atsq_city_inflight{city=\"tokyo\"} 2\n"));
        assert!(text.contains("atsq_city_queries_total{city=\"tokyo\"} 17\n"));
        assert!(text.contains("atsq_city_loads_total{city=\"osaka\"} 1\n"));
        assert!(text.contains("atsq_city_evictions_total{city=\"osaka\"} 1\n"));
        assert!(text.contains("atsq_city_load_seconds_total{city=\"tokyo\"} 1.5\n"));
        assert!(text.contains("atsq_city_candidates_total{city=\"tokyo\"} 9\n"));
    }
}
