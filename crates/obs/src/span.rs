//! Stage clocks and per-request trace reports.
//!
//! A request's life is a chain of stages; the clock here records each
//! stage as the time between consecutive [`StageClock::mark`] calls,
//! so the per-stage durations **telescope**: their sum is exactly the
//! time from [`StageClock::start`] to the last mark. That is the
//! property that lets a slow-log entry's stage breakdown be audited
//! against its end-to-end latency with no epsilon games.

use crate::counters::QueryCounters;
use std::time::Instant;

/// Number of request stages.
pub const STAGES: usize = 6;

/// One stage of a request's life inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Submission: cache-key canonicalisation and queue admission.
    Admission = 0,
    /// Waiting in the bounded queue for a worker.
    Queue = 1,
    /// Deadline check and result-cache lookup.
    Cache = 2,
    /// From the cache miss to the start of engine execution (close to
    /// zero: the worker runs the miss at once).
    Assembly = 3,
    /// Engine execution.
    Engine = 4,
    /// From execution end (or cache hit) to the reply send, including
    /// a miss's cache insert.
    Reply = 5,
}

impl Stage {
    /// All stages, in request-lifecycle order.
    pub const ALL: [Stage; STAGES] = [
        Stage::Admission,
        Stage::Queue,
        Stage::Cache,
        Stage::Assembly,
        Stage::Engine,
        Stage::Reply,
    ];

    /// Stable lowercase stage name (metric label / wire field).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::Queue => "queue",
            Stage::Cache => "cache",
            Stage::Assembly => "assembly",
            Stage::Engine => "engine",
            Stage::Reply => "reply",
        }
    }
}

/// A monotone per-request stage timer.
#[derive(Debug)]
pub struct StageClock {
    last: Instant,
    stage_ns: [u64; STAGES],
}

impl StageClock {
    /// Starts the clock; the first `mark` closes the first stage.
    pub fn start() -> StageClock {
        StageClock {
            last: Instant::now(),
            stage_ns: [0; STAGES],
        }
    }

    /// Attributes the time since the previous mark (or start) to
    /// `stage`. A stage may be marked more than once; durations add.
    pub fn mark(&mut self, stage: Stage) {
        let now = Instant::now();
        self.stage_ns[stage as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }

    /// Per-stage nanoseconds recorded so far.
    pub fn stage_ns(&self) -> [u64; STAGES] {
        self.stage_ns
    }

    /// Closes the clock into a [`TraceReport`]. `total_ns` is the sum
    /// of the stage durations — exactly the start→last-mark span.
    pub fn finish(
        self,
        request_id: u64,
        op: &'static str,
        status: &'static str,
        cached: bool,
        counters: QueryCounters,
    ) -> TraceReport {
        TraceReport {
            request_id,
            op,
            status,
            cached,
            total_ns: self.stage_ns.iter().sum(),
            stage_ns: self.stage_ns,
            counters,
        }
    }
}

/// The full trace of one served request.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// The service-assigned request id (echoed on the wire).
    pub request_id: u64,
    /// Request op label (`atsq`, `oatsq`, …).
    pub op: &'static str,
    /// Outcome: `ok`, `expired` or `failed`.
    pub status: &'static str,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// End-to-end submit→reply nanoseconds (the exact stage sum).
    pub total_ns: u64,
    /// Per-stage nanoseconds, indexed by [`Stage`].
    pub stage_ns: [u64; STAGES],
    /// This query's engine work-counter delta.
    pub counters: QueryCounters,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_durations_telescope_to_total() {
        let mut clock = StageClock::start();
        clock.mark(Stage::Admission);
        std::thread::sleep(std::time::Duration::from_millis(2));
        clock.mark(Stage::Queue);
        clock.mark(Stage::Cache);
        std::thread::sleep(std::time::Duration::from_millis(1));
        clock.mark(Stage::Engine);
        clock.mark(Stage::Reply);
        let report = clock.finish(7, "atsq", "ok", false, QueryCounters::default());
        assert_eq!(report.request_id, 7);
        assert_eq!(report.stage_ns.iter().sum::<u64>(), report.total_ns);
        assert!(report.stage_ns[Stage::Queue as usize] >= 1_000_000);
        assert!(report.stage_ns[Stage::Engine as usize] >= 500_000);
        assert_eq!(report.stage_ns[Stage::Assembly as usize], 0);
    }

    #[test]
    fn repeated_marks_accumulate() {
        let mut clock = StageClock::start();
        clock.mark(Stage::Engine);
        clock.mark(Stage::Engine);
        let ns = clock.stage_ns();
        assert_eq!(ns.iter().sum::<u64>(), ns[Stage::Engine as usize]);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["admission", "queue", "cache", "assembly", "engine", "reply"]
        );
    }
}
