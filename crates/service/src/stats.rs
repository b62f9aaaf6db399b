//! Service-level counters and latency percentiles.
//!
//! All counters are lock-free atomics updated by workers and read by
//! anyone; latency quantiles come from a fixed log-scale histogram
//! (power-of-two microsecond buckets), so recording is wait-free and
//! a snapshot costs one pass over 40 buckets.

use atsq_core::EngineCounters;
use atsq_obs::STAGES;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const BUCKETS: usize = 40; // 2^39 µs ≈ 6.4 days — plenty of headroom

/// Shared mutable counters; cheap to update from any worker.
#[derive(Debug)]
pub struct ServiceStats {
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    failed: AtomicU64,
    /// Histogram of end-to-end (enqueue → reply) latency in µs.
    latency_us: [AtomicU64; BUCKETS],
    /// Sum of completed-request latencies in µs (feeds the Prometheus
    /// histogram's `_sum` sample).
    latency_sum_us: AtomicU64,
    /// Accumulated per-stage nanoseconds across traced requests,
    /// indexed by [`atsq_obs::Stage`].
    stage_ns: [AtomicU64; STAGES],
    /// Accumulated response-serialisation nanoseconds (server-side
    /// encode, outside the per-request latency window).
    serialize_ns: AtomicU64,
    /// Responses whose serialisation was timed.
    serialize_count: AtomicU64,
    /// QPS window state: `(uptime µs, completion count)` at the last
    /// *consumed* snapshot plus the rate it reported — behind one
    /// mutex so concurrent snapshot takers cannot pair one caller's
    /// time window with another's completion window. Snapshots are a
    /// cold path; the hot-path counters stay lock-free.
    window: parking_lot::Mutex<QpsWindow>,
}

/// See [`ServiceStats::snapshot`]: the window only advances once it is
/// at least [`MIN_QPS_WINDOW_US`] long; shorter gaps report
/// `last_rate` unchanged.
#[derive(Debug, Clone, Copy, Default)]
struct QpsWindow {
    start_us: u64,
    completed_at_start: u64,
    last_rate: f64,
}

/// Minimum window length a QPS sample may be computed over. Dividing a
/// handful of completions by the microseconds between two back-to-back
/// `stats` calls would report absurd rate spikes; below this floor the
/// previous rate is carried and the window keeps accumulating.
const MIN_QPS_WINDOW_US: u64 = 10_000;

impl Default for ServiceStats {
    fn default() -> Self {
        let stats = ServiceStats {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            latency_us: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_sum_us: AtomicU64::new(0),
            stage_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            serialize_ns: AtomicU64::new(0),
            serialize_count: AtomicU64::new(0),
            window: parking_lot::Mutex::new(QpsWindow::default()),
        };
        stats.window.set_name("service.stats.qps_window");
        stats
    }
}

impl ServiceStats {
    /// One request admitted to the queue.
    pub fn record_submitted(&self) {
        // ordering: Relaxed — independent monotone tally; snapshots
        // tolerate a skewed cut (they clamp derived values).
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// One request refused at admission (queue full).
    pub fn record_rejected(&self) {
        // ordering: Relaxed — independent monotone tally.
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// One request whose deadline passed before execution.
    pub fn record_expired(&self) {
        // ordering: Relaxed — independent monotone tally.
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// One request answered from the result cache.
    pub fn record_cache_hit(&self) {
        // ordering: Relaxed — independent monotone tally.
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One request that missed the cache and ran on the engine.
    pub fn record_cache_miss(&self) {
        // ordering: Relaxed — independent monotone tally.
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// One request whose execution panicked (reported, not fatal).
    pub fn record_failed(&self) {
        // ordering: Relaxed — independent monotone tally.
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// One request completed with the given enqueue→reply latency.
    ///
    /// Every latency lands in a bucket: sub-microsecond values clamp
    /// into the first bucket, and durations beyond the top bucket
    /// (2^39 µs ≈ 6.4 days, which a u128→u64 conversion could
    /// otherwise wrap) clamp into the last — nothing panics, nothing
    /// vanishes from the histogram.
    pub fn record_completed(&self, latency: Duration) {
        // ordering: Relaxed — monotone tallies; the completion count,
        // histogram bucket and latency sum are each meaningful alone,
        // and snapshot percentiles tolerate a skewed cut.
        self.completed.fetch_add(1, Ordering::Relaxed);
        let us = u64::try_from(latency.as_micros())
            .unwrap_or(u64::MAX)
            .max(1);
        let bucket = (63 - us.leading_zeros() as usize).min(BUCKETS - 1);
        // ordering: Relaxed — as above.
        self.latency_us[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Folds one traced request's per-stage nanoseconds into the
    /// service-wide stage aggregates.
    pub fn record_stages(&self, stage_ns: &[u64; STAGES]) {
        for (total, &ns) in self.stage_ns.iter().zip(stage_ns) {
            if ns > 0 {
                // ordering: Relaxed — independent monotone tally per
                // stage; no memory is published through it.
                total.fetch_add(ns, Ordering::Relaxed);
            }
        }
    }

    /// Records time spent serialising one response on the wire path.
    pub fn record_serialize(&self, ns: u64) {
        // ordering: Relaxed — monotone tallies read only for a mean;
        // a skewed ns/count cut shifts the mean negligibly.
        self.serialize_ns.fetch_add(ns, Ordering::Relaxed);
        self.serialize_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Lower bound (µs) of the histogram bucket containing the current
    /// p99 latency, or 0 before any completion. The slow-query log uses
    /// this as its always-sample-the-tail floor: a request at or above
    /// it is recorded even when the configured threshold is higher.
    pub fn p99_floor_us(&self) -> u64 {
        let mut total = 0u64;
        // coherence: the bucket loads are not a point-in-time cut; a
        // completion landing mid-read shifts the floor by at most one
        // bucket, which the advisory tail-sampling policy tolerates.
        // ordering: Relaxed — see the coherence note above.
        let hist: [u64; BUCKETS] =
            std::array::from_fn(|i| self.latency_us[i].load(Ordering::Relaxed));
        for count in hist {
            total += count;
        }
        if total == 0 {
            return 0;
        }
        let target = nearest_rank(total, 0.99);
        let mut seen = 0u64;
        for (i, &count) in hist.iter().enumerate() {
            seen += count;
            if seen >= target {
                return 1u64 << i;
            }
        }
        unreachable!("target within total");
    }

    /// Consistent-enough snapshot of every counter (individual loads
    /// are atomic; the set is not, which is fine for monitoring).
    ///
    /// The reported `qps` is **windowed**: completions since the
    /// previous *consumed* snapshot divided by the time since it (the
    /// first window starts at service start). A lifetime average would
    /// be permanently deflated by any idle period. The window is only
    /// consumed once it is at least 10 ms long; two back-to-back stats
    /// calls therefore repeat the previous rate instead of dividing a
    /// few completions by a microsecond-scale gap and reporting an
    /// absurd spike, and the accumulating window still counts the
    /// burst when it is next consumed. Concurrent snapshot takers
    /// share one window, so a given consumer sees the rate since
    /// *someone* last looked — the usual scrape model.
    pub fn snapshot(&self, queue_depth: usize, engine: EngineCounters) -> StatsSnapshot {
        // coherence: the snapshot's loads are not a point-in-time cut
        // across counters (documented above) — each value is exact on
        // its own and the derived figures clamp; only the QPS window
        // state below needs real coherence, and the mutex provides it.
        // ordering: Relaxed throughout — see the coherence note.
        let hist: Vec<u64> = self
            .latency_us
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // The completion count and clock are read *inside* the lock:
        // read outside, a descheduled taker could pair its stale count
        // with a fresher taker's window and corrupt the rate state —
        // the exact mispairing the shared-window mutex exists to
        // prevent.
        let (completed, uptime, qps) = {
            let mut w = self.window.lock();
            // ordering: Relaxed — the window mutex orders takers
            // against each other; the count itself is a monotone
            // tally whose exact cut point is immaterial.
            let completed = self.completed.load(Ordering::Relaxed);
            let uptime = self.started.elapsed();
            let now_us = uptime.as_micros() as u64;
            let window_us = now_us.saturating_sub(w.start_us);
            let qps = if window_us < MIN_QPS_WINDOW_US {
                w.last_rate // window too short to rate; keep accumulating
            } else {
                let delta = completed.saturating_sub(w.completed_at_start);
                let rate = delta as f64 / (window_us as f64 / 1e6);
                *w = QpsWindow {
                    start_us: now_us,
                    completed_at_start: completed,
                    last_rate: rate,
                };
                rate
            };
            (completed, uptime, qps)
        };
        // ordering: Relaxed — monotone tallies; the inflight figure
        // below saturates because these are not a consistent cut.
        let submitted = self.submitted.load(Ordering::Relaxed);
        let expired = self.expired.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        // Every admitted request terminates in exactly one of
        // completed / expired / failed, so the difference is the
        // population currently queued or executing. Saturating: the
        // relaxed loads are not a consistent cut.
        let answered = completed + expired + failed;
        let inflight = submitted.saturating_sub(answered);
        // ordering: Relaxed for every load below — monotone tallies,
        // advisory monitoring cut (see the coherence note above).
        StatsSnapshot {
            uptime,
            submitted,
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            expired,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            coalesced: 0,
            failed,
            batches: answered,
            batched_requests: answered,
            qps,
            p50_ms: percentile_ms(&hist, 0.50),
            p90_ms: percentile_ms(&hist, 0.90),
            p99_ms: percentile_ms(&hist, 0.99),
            queue_depth,
            inflight,
            latency_sum_us: self.latency_sum_us.load(Ordering::Relaxed),
            latency_buckets: hist,
            stage_ns: std::array::from_fn(|i| self.stage_ns[i].load(Ordering::Relaxed)),
            serialize_ns: self.serialize_ns.load(Ordering::Relaxed),
            serialize_count: self.serialize_count.load(Ordering::Relaxed),
            engine,
        }
    }
}

/// The one percentile convention this crate uses: **nearest rank**,
/// `rank = ⌈p·n⌉` clamped into `[1, n]`. Both the server-side
/// histogram percentiles ([`percentile_ms`]) and the load generator's
/// client-side sample percentiles ([`percentile_sorted`]) apply this
/// rule, so the two sides of a measurement report comparable numbers.
fn nearest_rank(total: u64, p: f64) -> u64 {
    (((total as f64) * p).ceil() as u64).clamp(1, total)
}

/// Nearest-rank percentile of an ascending-sorted sample (`0.0` for an
/// empty one). Sort inputs with [`f64::total_cmp`] — it is total over
/// NaN and infinities, unlike a `partial_cmp` fallback that silently
/// treats NaN as equal to everything and can leave the slice
/// mis-sorted.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len() as u64, p) as usize - 1]
}

/// Approximate percentile from the log-bucket histogram, reported as
/// the geometric midpoint of the containing bucket, in milliseconds.
/// Same nearest-rank rule as [`percentile_sorted`].
fn percentile_ms(hist: &[u64], p: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = nearest_rank(total, p);
    let mut seen = 0u64;
    for (i, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= target {
            // Bucket i covers [2^i, 2^(i+1)) µs.
            let lo = (1u64 << i) as f64;
            return lo * std::f64::consts::SQRT_2 / 1e3;
        }
    }
    unreachable!("target within total");
}

/// Point-in-time view of the service counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Time since the service started.
    pub uptime: Duration,
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests answered (cache hits included, expirations excluded).
    pub completed: u64,
    /// Requests refused at admission (queue full).
    pub rejected: u64,
    /// Requests whose deadline passed while queued.
    pub expired: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Requests that ran on the engine.
    pub cache_misses: u64,
    /// Always 0: workers take one job per pass and never coalesce.
    /// Kept only because the benchmark reads it; it goes when ROADMAP
    /// item 19's benchmark-only change stops reading it.
    pub coalesced: u64,
    /// Requests whose execution panicked (answered `Failed`).
    pub failed: u64,
    /// Jobs workers carried to a reply, one per pass: `completed +
    /// expired + failed`. Kept only because the benchmark reads it (as
    /// `batched_requests / batches`); it goes when ROADMAP item 19's
    /// benchmark-only change stops reading it.
    pub batches: u64,
    /// Equal to [`StatsSnapshot::batches`]; kept, and going, with it.
    pub batched_requests: u64,
    /// Completed requests per second **since the previous snapshot**
    /// (not a lifetime average — idle periods don't deflate it).
    pub qps: f64,
    /// Median enqueue→reply latency (log-bucket approximation).
    pub p50_ms: f64,
    /// 90th-percentile latency.
    pub p90_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Admitted requests not yet terminally answered (queued or
    /// executing), derived from the terminal counters.
    pub inflight: u64,
    /// Sum of completed-request latencies in µs.
    pub latency_sum_us: u64,
    /// Raw latency histogram counts; bucket `i` covers
    /// `[2^i, 2^(i+1))` µs.
    pub latency_buckets: Vec<u64>,
    /// Accumulated per-stage nanoseconds across traced requests,
    /// indexed by [`atsq_obs::Stage`].
    pub stage_ns: [u64; STAGES],
    /// Accumulated response-serialisation nanoseconds (wire encode).
    pub serialize_ns: u64,
    /// Responses whose serialisation was timed.
    pub serialize_count: u64,
    /// Work counters of the underlying engine.
    pub engine: EngineCounters,
}

impl StatsSnapshot {
    /// Cache hits as a fraction of cache-eligible completions.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "uptime {:.1}s  submitted {}  completed {}  rejected {}  expired {}",
            self.uptime.as_secs_f64(),
            self.submitted,
            self.completed,
            self.rejected,
            self.expired
        )?;
        writeln!(
            f,
            "qps {:.1}  p50 {:.2} ms  p90 {:.2} ms  p99 {:.2} ms  queue {}",
            self.qps, self.p50_ms, self.p90_ms, self.p99_ms, self.queue_depth
        )?;
        write!(
            f,
            "cache hit rate {:.1}%  failed {}  distance evals {}",
            self.cache_hit_rate() * 100.0,
            self.failed,
            self.engine.distance_evals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ServiceStats::default();
        s.record_submitted();
        s.record_submitted();
        s.record_rejected();
        s.record_expired();
        s.record_cache_hit();
        s.record_cache_miss();
        s.record_completed(Duration::from_micros(800));
        // Let the QPS window clear its 10 ms floor so the rate is live.
        std::thread::sleep(Duration::from_millis(12));
        let snap = s.snapshot(3, EngineCounters::default());
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.queue_depth, 3);
        // One pass per answered job (one completed, one expired).
        assert_eq!((snap.batches, snap.batched_requests), (2, 2));
        assert_eq!(snap.coalesced, 0);
        assert!((snap.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert!(snap.qps > 0.0);
        let text = snap.to_string();
        assert!(text.contains("cache hit rate"), "{text}");
    }

    #[test]
    fn percentiles_track_magnitude() {
        let s = ServiceStats::default();
        // 90 fast requests at ~1 ms, 10 slow at ~500 ms.
        for _ in 0..90 {
            s.record_completed(Duration::from_millis(1));
        }
        for _ in 0..10 {
            s.record_completed(Duration::from_millis(500));
        }
        let snap = s.snapshot(0, EngineCounters::default());
        assert!(snap.p50_ms < 4.0, "p50 {}", snap.p50_ms);
        assert!(snap.p99_ms > 100.0, "p99 {}", snap.p99_ms);
        assert!(snap.p50_ms <= snap.p90_ms && snap.p90_ms <= snap.p99_ms);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = ServiceStats::default();
        let snap = s.snapshot(0, EngineCounters::default());
        assert_eq!(snap.p50_ms, 0.0);
        assert_eq!(snap.cache_hit_rate(), 0.0);
    }

    /// The regression the windowed rate fixes: an idle stretch between
    /// two snapshots must not drag the reported QPS toward zero, and
    /// work after the idle period is rated against the recent window
    /// only.
    #[test]
    fn qps_is_windowed_not_lifetime() {
        let s = ServiceStats::default();
        for _ in 0..50 {
            s.record_completed(Duration::from_micros(100));
        }
        std::thread::sleep(Duration::from_millis(12));
        let first = s.snapshot(0, EngineCounters::default());
        assert!(first.qps > 0.0);
        // Idle period, then one snapshot: zero completions in window.
        std::thread::sleep(Duration::from_millis(30));
        let idle = s.snapshot(0, EngineCounters::default());
        assert_eq!(idle.qps, 0.0, "no completions since last snapshot");
        // A burst right after the idle window rates against the short
        // recent window, not lifetime uptime: 50 completions within
        // ~12 ms must report far more than the lifetime average a
        // 40+ ms idle stretch would produce.
        for _ in 0..50 {
            s.record_completed(Duration::from_micros(100));
        }
        std::thread::sleep(Duration::from_millis(12));
        let burst = s.snapshot(0, EngineCounters::default());
        let lifetime = burst.completed as f64 / burst.uptime.as_secs_f64();
        assert!(
            burst.qps > lifetime,
            "windowed {} should beat lifetime {}",
            burst.qps,
            lifetime
        );
    }

    /// The regression the minimum-window guard fixes: two back-to-back
    /// stats calls must not divide a burst of completions by a
    /// microsecond-scale gap and report an absurd rate spike. The
    /// sub-floor call repeats the previous rate; the burst is still
    /// counted once the window is long enough to consume.
    #[test]
    fn back_to_back_snapshots_do_not_spike_qps() {
        let s = ServiceStats::default();
        for _ in 0..20 {
            s.record_completed(Duration::from_micros(100));
        }
        std::thread::sleep(Duration::from_millis(12));
        let first = s.snapshot(0, EngineCounters::default());
        assert!(first.qps > 0.0 && first.qps < 20_000.0, "{}", first.qps);
        // Burst + immediate snapshot: the window is normally only
        // microseconds long here, so the guard carries the previous
        // rate instead of reporting 1000 completions over it (tens of
        // millions of QPS). Under a CI scheduler stall the window can
        // legitimately clear the 10 ms floor and recompute — so the
        // hard bound is the property asserted: the reported rate can
        // never exceed completions divided by the window floor.
        for _ in 0..1000 {
            s.record_completed(Duration::from_micros(100));
        }
        let spike = s.snapshot(0, EngineCounters::default());
        let ceiling = 1020.0 / 0.010;
        assert!(
            spike.qps <= ceiling,
            "guarded rate {} must stay below the window-floor ceiling {ceiling}",
            spike.qps
        );
        // Once the window clears the floor, the burst is rated over a
        // real window — large, but still bounded by the same ceiling.
        std::thread::sleep(Duration::from_millis(12));
        let settled = s.snapshot(0, EngineCounters::default());
        if spike.qps == first.qps {
            // The spike call carried (no stall): the accumulating
            // window kept the burst and it must show up now.
            assert!(settled.qps > first.qps, "burst must show up");
        }
        assert!(
            settled.qps <= ceiling,
            "rate bounded by the window floor, got {}",
            settled.qps
        );
    }

    /// Bucket-edge regressions: sub-microsecond latencies land in the
    /// first bucket, and latencies beyond the top bucket (including
    /// durations whose microsecond count exceeds u64) land in the last
    /// bucket — counted, not panicking, not vanishing.
    #[test]
    fn latency_bucket_edges_clamp() {
        let s = ServiceStats::default();
        s.record_completed(Duration::ZERO);
        s.record_completed(Duration::from_nanos(1));
        s.record_completed(Duration::from_nanos(999));
        let snap = s.snapshot(0, EngineCounters::default());
        assert_eq!(snap.completed, 3);
        // All three sit in bucket 0: its geometric midpoint is √2 µs.
        let first_bucket_ms = std::f64::consts::SQRT_2 / 1e3;
        assert!(
            (snap.p50_ms - first_bucket_ms).abs() < 1e-12,
            "{}",
            snap.p50_ms
        );
        assert!((snap.p99_ms - first_bucket_ms).abs() < 1e-12);

        // Far beyond the top bucket: 2^39 µs ≈ 6.4 days < 10^6 days;
        // Duration::MAX microseconds does not even fit u64.
        let s = ServiceStats::default();
        s.record_completed(Duration::from_secs(60 * 60 * 24 * 365)); // a year
        s.record_completed(Duration::MAX);
        let snap = s.snapshot(0, EngineCounters::default());
        assert_eq!(snap.completed, 2);
        let last_bucket_ms = ((1u64 << (BUCKETS - 1)) as f64) * std::f64::consts::SQRT_2 / 1e3;
        assert!(
            (snap.p50_ms - last_bucket_ms).abs() < 1e-3,
            "{}",
            snap.p50_ms
        );
        assert!((snap.p99_ms - last_bucket_ms).abs() < 1e-3);
    }

    /// The shared nearest-rank convention, on the sample-percentile
    /// side: rank ⌈p·n⌉, clamped, NaN-safe ordering left to the
    /// caller's `total_cmp` sort.
    #[test]
    fn percentile_sorted_uses_nearest_rank() {
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        let one = [42.0];
        assert_eq!(percentile_sorted(&one, 0.0), 42.0);
        assert_eq!(percentile_sorted(&one, 1.0), 42.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // ⌈0.5·10⌉ = 5 → 5.0 (nearest-rank, not linear interpolation).
        assert_eq!(percentile_sorted(&v, 0.50), 5.0);
        // ⌈0.99·10⌉ = 10 → 10.0; ⌈0.90·10⌉ = 9 → 9.0.
        assert_eq!(percentile_sorted(&v, 0.99), 10.0);
        assert_eq!(percentile_sorted(&v, 0.90), 9.0);
        // ⌈0.91·10⌉ = 10: the old round() rule would have picked
        // index round(9·0.91)=8 → 9.0 here; nearest-rank says 10.0.
        assert_eq!(percentile_sorted(&v, 0.91), 10.0);
        // A total_cmp sort orders NaN last and the percentile stays
        // finite for ranks below it.
        let mut with_nan = vec![3.0, f64::NAN, 1.0, 2.0];
        with_nan.sort_unstable_by(f64::total_cmp);
        assert_eq!(percentile_sorted(&with_nan, 0.50), 2.0);
        assert_eq!(with_nan[0], 1.0);
    }
}
