//! Parallel batch query execution.
//!
//! Every engine in this workspace is read-only after construction
//! (`&self` queries; the GAT I/O counters are atomics), so a batch of
//! queries parallelises trivially across threads. This module provides
//! a scoped-thread executor (`std::thread::scope`, no external
//! runtime) that preserves the input order of results — useful for
//! benchmark sweeps and for serving workloads without an async
//! runtime. The `atsq-service` crate builds its micro-batching on top
//! of this.

use crate::QueryEngine;
use atsq_obs::{CounterScope, CounterSink};
use atsq_types::{Dataset, Query, QueryResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which of the paper's two query types to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Order-free ATSQ (§II).
    Atsq,
    /// Order-sensitive OATSQ (§VI).
    Oatsq,
}

/// Runs `queries` against `engine` on `threads` worker threads,
/// returning the per-query top-`k` lists in input order.
///
/// Work is distributed by an atomic cursor, so skewed per-query costs
/// (common with OATSQ) still balance. `threads = 1` degenerates to a
/// sequential loop with no thread spawn.
pub fn run_batch<E: QueryEngine + Sync>(
    engine: &E,
    dataset: &Dataset,
    queries: &[Query],
    k: usize,
    kind: QueryKind,
    threads: usize,
) -> Vec<Vec<QueryResult>> {
    run_batch_with_sinks(engine, dataset, queries, k, kind, threads, None)
}

/// [`run_batch`] with optional per-query counter attribution: when
/// `sinks` is given (one [`CounterSink`] per query, same order), each
/// query executes inside a [`CounterScope`] targeting its own sink, so
/// the engine work counters of every batch member are attributed
/// individually even though members run concurrently. This is how the
/// serving layer keeps per-request pruning numbers exact for queries
/// that share one grouped batch execution.
pub fn run_batch_with_sinks<E: QueryEngine + Sync>(
    engine: &E,
    dataset: &Dataset,
    queries: &[Query],
    k: usize,
    kind: QueryKind,
    threads: usize,
    sinks: Option<&[Arc<CounterSink>]>,
) -> Vec<Vec<QueryResult>> {
    if let Some(sinks) = sinks {
        assert_eq!(
            sinks.len(),
            queries.len(),
            "one counter sink per batched query"
        );
    }
    let threads = threads.max(1);
    let run_one = |i: usize, q: &Query| {
        let _ctx = sinks.map(|s| CounterScope::enter(s[i].clone()));
        match kind {
            QueryKind::Atsq => engine.atsq(dataset, q, k),
            QueryKind::Oatsq => engine.oatsq(dataset, q, k),
        }
    };
    if threads == 1 || queries.len() <= 1 {
        return queries
            .iter()
            .enumerate()
            .map(|(i, q)| run_one(i, q))
            .collect();
    }

    let slots: Vec<parking_lot::Mutex<Option<Vec<QueryResult>>>> = queries
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    let cursor = AtomicUsize::new(0);

    // `std::thread::scope` joins all workers before returning and
    // re-raises any worker panic, so every slot is filled on exit.
    std::thread::scope(|scope| {
        for _ in 0..threads.min(queries.len()) {
            scope.spawn(|| loop {
                // ordering: Relaxed — work-stealing cursor; atomicity
                // alone hands each index to exactly one worker, and
                // results travel through the slot mutexes, not this.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                let out = run_one(i, &queries[i]);
                *slots[i].lock() = Some(out);
            });
        }
    });

    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("invariant: scope joins all workers, so every query slot is filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GatEngine;
    use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};

    #[test]
    fn parallel_matches_sequential() {
        let dataset = generate(&CityConfig::tiny(5)).unwrap();
        let engine = GatEngine::build(&dataset).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 12);
        for kind in [QueryKind::Atsq, QueryKind::Oatsq] {
            let seq = run_batch(&engine, &dataset, &queries, 5, kind, 1);
            let par = run_batch(&engine, &dataset, &queries, 5, kind, 4);
            assert_eq!(seq, par, "{kind:?} results diverge under threading");
        }
    }

    #[test]
    fn more_threads_than_queries() {
        let dataset = generate(&CityConfig::tiny(6)).unwrap();
        let engine = GatEngine::build(&dataset).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 2);
        let out = run_batch(&engine, &dataset, &queries, 3, QueryKind::Atsq, 16);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_batch() {
        let dataset = generate(&CityConfig::tiny(7)).unwrap();
        let engine = GatEngine::build(&dataset).unwrap();
        let out = run_batch(&engine, &dataset, &[], 3, QueryKind::Atsq, 4);
        assert!(out.is_empty());
    }

    /// Per-query sink attribution: every batch member's counter delta
    /// lands in its own sink, and the deltas sum to the engine's total
    /// for the batch (checked from a clean engine, which nothing else
    /// is querying).
    #[test]
    fn per_query_sinks_attribute_exactly() {
        use crate::Profiled;
        let dataset = generate(&CityConfig::tiny(9)).unwrap();
        let engine = GatEngine::build(&dataset).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 10);
        engine.reset_counters();
        let sinks: Vec<_> = queries.iter().map(|_| CounterSink::new()).collect();
        let out = run_batch_with_sinks(
            &engine,
            &dataset,
            &queries,
            5,
            QueryKind::Atsq,
            4,
            Some(&sinks),
        );
        assert_eq!(out.len(), queries.len());
        let summed = sinks
            .iter()
            .fold(atsq_obs::QueryCounters::default(), |acc, s| {
                acc.add(&s.counters())
            });
        let total = engine.counters();
        assert_eq!(summed.candidates, total.candidates);
        assert_eq!(summed.distance_evals, total.distance_evals);
        assert_eq!(summed.apl_reads, total.apl_reads);
        assert!(summed.candidates > 0, "batch must have done engine work");
        // The per-query split is real, not all-on-one-sink.
        let with_work = sinks.iter().filter(|s| !s.counters().is_zero()).count();
        assert!(with_work > 1, "work attributed to {with_work} sink(s)");
    }

    /// Per-query attribution survives the sharded engine's fan-out:
    /// each query's counter delta (traversal work plus per-lane
    /// verification, wherever the threads ran) lands in its own sink,
    /// and the deltas sum to the engine totals — which for the sharded
    /// engine include the traversal's counters.
    #[test]
    fn sharded_per_query_sinks_attribute_exactly() {
        use crate::{Partition, Profiled, ShardedEngine};
        let dataset = generate(&CityConfig::tiny(9)).unwrap();
        let engine = ShardedEngine::build(&dataset, 4, Partition::Hash).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 10);
        engine.reset_counters();
        let sinks: Vec<_> = queries.iter().map(|_| CounterSink::new()).collect();
        let out = run_batch_with_sinks(
            &engine,
            &dataset,
            &queries,
            5,
            QueryKind::Atsq,
            4,
            Some(&sinks),
        );
        assert_eq!(out.len(), queries.len());
        let summed = sinks
            .iter()
            .fold(atsq_obs::QueryCounters::default(), |acc, s| {
                acc.add(&s.counters())
            });
        let total = engine.counters();
        assert_eq!(summed.candidates, total.candidates);
        assert_eq!(summed.distance_evals, total.distance_evals);
        assert_eq!(summed.apl_reads, total.apl_reads);
        assert_eq!(summed.cold_reads, total.cold_reads);
        assert!(summed.candidates > 0, "batch must have done engine work");
        let with_work = sinks.iter().filter(|s| !s.counters().is_zero()).count();
        assert!(with_work > 1, "work attributed to {with_work} sink(s)");
    }

    /// The batch executor is engine-generic: running a batch through
    /// the sharded engine (itself parallel per query) equals the
    /// single-index engine, for both query kinds.
    #[test]
    fn sharded_engine_batches_match_single_index() {
        use crate::{Partition, ShardedEngine};
        let dataset = generate(&CityConfig::tiny(8)).unwrap();
        let single = GatEngine::build(&dataset).unwrap();
        let sharded = ShardedEngine::build(&dataset, 3, Partition::Spatial).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 8);
        for kind in [QueryKind::Atsq, QueryKind::Oatsq] {
            let want = run_batch(&single, &dataset, &queries, 5, kind, 1);
            let got = run_batch(&sharded, &dataset, &queries, 5, kind, 4);
            assert_eq!(got, want, "{kind:?} diverged through the sharded engine");
        }
    }
}
