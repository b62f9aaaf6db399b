//! A bounded slow-query log.
//!
//! A fixed-capacity ring of [`TraceReport`]s. The policy is
//! *threshold + always-sample-the-tail*: a request is recorded when
//! its end-to-end latency crosses the configured threshold, **or**
//! when the caller forces it (the service forces requests at or above
//! the current p99 bucket, so the tail is represented even when the
//! threshold is set high). The ring evicts oldest-first, so memory is
//! bounded no matter the traffic.

use crate::span::TraceReport;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::Instant;

/// One recorded slow request.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// The request's trace.
    pub report: TraceReport,
    /// When the entry was recorded (for age reporting).
    pub recorded_at: Instant,
}

/// Bounded ring buffer of slow-request traces.
#[derive(Debug)]
pub struct SlowLog {
    threshold_ns: u64,
    inner: Mutex<VecDeque<SlowEntry>>,
    capacity: usize,
}

impl SlowLog {
    /// A log holding at most `capacity` entries, recording requests
    /// slower than `threshold_ns` (zero records everything). Capacity
    /// zero disables the log entirely.
    pub fn new(capacity: usize, threshold_ns: u64) -> SlowLog {
        SlowLog {
            threshold_ns,
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
        }
    }

    /// The configured latency threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Offers a trace. Recorded when `force` is set or the trace's
    /// total latency is at or above the threshold; the oldest entry is
    /// evicted when the ring is full. Returns whether it was recorded.
    pub fn offer(&self, report: TraceReport, force: bool) -> bool {
        if self.capacity == 0 || (!force && report.total_ns < self.threshold_ns) {
            return false;
        }
        let mut ring = self.inner.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(SlowEntry {
            report,
            recorded_at: Instant::now(),
        });
        true
    }

    /// Entries oldest-first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::QueryCounters;

    fn report(id: u64, total_ns: u64) -> TraceReport {
        TraceReport {
            request_id: id,
            op: "atsq",
            status: "ok",
            cached: false,
            total_ns,
            stage_ns: [0, 0, 0, 0, total_ns, 0],
            counters: QueryCounters::default(),
        }
    }

    #[test]
    fn threshold_filters_and_force_overrides() {
        let log = SlowLog::new(8, 1_000_000);
        assert!(!log.offer(report(1, 10), false), "below threshold");
        assert!(log.offer(report(2, 2_000_000), false), "above threshold");
        assert!(log.offer(report(3, 10), true), "forced");
        let ids: Vec<u64> = log.entries().iter().map(|e| e.report.request_id).collect();
        assert_eq!(ids, [2, 3]);
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let log = SlowLog::new(3, 0);
        for id in 1..=5 {
            assert!(log.offer(report(id, id), false));
        }
        let ids: Vec<u64> = log.entries().iter().map(|e| e.report.request_id).collect();
        assert_eq!(ids, [3, 4, 5], "oldest entries evicted, order preserved");
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn zero_capacity_disables() {
        let log = SlowLog::new(0, 0);
        assert!(!log.offer(report(1, u64::MAX), true));
        assert!(log.is_empty());
    }

    #[test]
    fn zero_threshold_records_everything() {
        let log = SlowLog::new(4, 0);
        assert!(log.offer(report(1, 0), false));
        assert_eq!(log.len(), 1);
    }
}
