//! A sharded, parallel GAT engine: one [`GatIndex`] plus an id
//! partition.
//!
//! Every structure Algorithm 1 verifies a candidate with — the TAS
//! sketch, the APL postings, the trajectory itself — is *per
//! trajectory*, so verifying on `S` threads needs no second index:
//! the engine holds one index over the full dataset and a table
//! assigning each trajectory id to one of `S` **lanes**. A query runs
//! the one search loop ([`crate::search()`]): the §V-A traversal
//! produces each candidate batch once, the batch is routed to the
//! lanes owning its candidates, and every lane verifies its share —
//! on its own worker thread when the host has cores to spare — at the
//! global id, against the same index and dataset as a single-index
//! search.
//!
//! The answer is *exactly* the single-index answer (distances, ids and
//! tie-breaks included): the candidate stream is the same, each
//! distance is computed from the same data, and the result sink's
//! content does not depend on the order candidates are offered in.
//! Parallel lanes prune against the cutoff as of the batch start,
//! which is never below the final one.
//!
//! This is an engine-level experiment, not a serving option: the CLI,
//! the service and the tenant registry build one GAT index with one
//! lane. Only the benchmark's `engine-direct` S = 2 arm and the engine
//! tests build a `ShardedEngine`, and it goes with ROADMAP item 6.

use crate::config::GatConfig;
use crate::index::GatIndex;
use crate::kernel::ScoreScratch;
use crate::search::{run, Verifier};
use crate::stats::{IoSnapshot, IoStats};
use atsq_types::{
    Dataset, Error, Goal, Query, QueryEngine, QueryKind, QueryResult, Result, Sink, TrajectoryId,
};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::Instant;

/// How trajectories are assigned to lanes. The traversal and every
/// answer are the same whatever the assignment; it only decides which
/// lane verifies a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partition {
    /// Multiplicative hash of the trajectory id — uniform lane sizes,
    /// so every batch spreads evenly.
    #[default]
    Hash,
}

/// One [`GatIndex`] whose candidates are verified on `S` lanes, behind
/// the same query entry point as the single index. Like the
/// index it stores no trajectory data: queries take the [`Dataset`]
/// the engine was built over.
#[derive(Debug)]
pub struct ShardedEngine {
    /// The index over the full dataset. Its own counters see only the
    /// traversal (cold HICL reads); verification is charged to lanes.
    index: GatIndex,
    /// Global trajectory id → owning lane; a deterministic function of
    /// the dataset size and the lane count, so it is never persisted.
    owner: Vec<u32>,
    /// The work counters of the candidates each lane owns.
    lanes: Vec<IoStats>,
    /// Verification workers a query may use: one per lane, capped by
    /// the host's parallelism.
    threads: usize,
    /// Accumulated coordinator time in the traversal itself (retrieve,
    /// route, lower bound), in nanoseconds — the serial section
    /// sharding cannot parallelize.
    router_busy_ns: AtomicU64,
}

impl ShardedEngine {
    /// Builds the index with the default GAT configuration and splits
    /// verification over `shards` lanes.
    pub fn build(dataset: &Dataset, shards: usize, partition: Partition) -> Result<Self> {
        Self::build_with(dataset, shards, partition, GatConfig::default())
    }

    /// Builds with an explicit GAT configuration.
    pub fn build_with(
        dataset: &Dataset,
        shards: usize,
        partition: Partition,
        config: GatConfig,
    ) -> Result<Self> {
        Self::from_index(
            GatIndex::build_with(dataset, config)?,
            dataset,
            shards,
            partition,
        )
    }

    /// Shards an already built (or snapshot-loaded) index over
    /// `dataset`, the dataset it was built from.
    pub fn from_index(
        index: GatIndex,
        dataset: &Dataset,
        shards: usize,
        partition: Partition,
    ) -> Result<Self> {
        if shards == 0 {
            return Err(Error::InvalidConfig("shard count must be ≥ 1".into()));
        }
        // `owner` is indexed by every id the index's ITL can produce.
        if index.tas().len() != dataset.len() {
            return Err(Error::InvalidConfig(format!(
                "index covers {} trajectories, dataset has {}",
                index.tas().len(),
                dataset.len()
            )));
        }
        let owner = match partition {
            Partition::Hash => hash_assign(dataset.len(), shards),
        };
        Ok(ShardedEngine {
            index,
            owner,
            lanes: (0..shards).map(|_| IoStats::default()).collect(),
            threads: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(shards),
            router_busy_ns: AtomicU64::new(0),
        })
    }

    /// I/O counters of the traversal (cold HICL reads of the candidate
    /// generation; never candidates). Engine totals are the sum of
    /// [`ShardedEngine::per_shard_stats`] and this snapshot.
    pub fn router_stats(&self) -> IoSnapshot {
        self.index.stats().snapshot()
    }

    /// Accumulated nanoseconds the coordinator spent inside the
    /// traversal (retrieve + route + lower bound) — the serial section
    /// of a sharded query.
    pub fn router_busy_ns(&self) -> u64 {
        // ordering: Relaxed — advisory busy-time tally (see field).
        self.router_busy_ns.load(AtomicOrdering::Relaxed)
    }

    pub(crate) fn add_router_busy(&self, ns: u64) {
        // ordering: Relaxed — advisory busy-time tally (see field).
        self.router_busy_ns.fetch_add(ns, AtomicOrdering::Relaxed);
    }

    /// Estimated resident bytes of the engine: the index components
    /// plus the id → lane table.
    pub fn approx_resident_bytes(&self) -> usize {
        self.index.memory_report().total_bytes() + std::mem::size_of_val(self.owner.as_slice())
    }

    /// Per-lane I/O counter snapshots, in lane order.
    pub fn per_shard_stats(&self) -> Vec<IoSnapshot> {
        self.lanes.iter().map(IoStats::snapshot).collect()
    }

    /// Zeroes every I/O counter and the router busy time — the sharded
    /// equivalent of the single-index full counter reset.
    pub fn reset_stats(&self) {
        for lane in &self.lanes {
            lane.reset();
        }
        self.index.stats().reset();
        // ordering: Relaxed — advisory stat reset; callers quiesce or
        // tolerate increments from in-flight queries.
        self.router_busy_ns.store(0, AtomicOrdering::Relaxed);
    }

    /// [`crate::search()`] with verification split over the lanes:
    /// exactly the single-index answer (see module docs). `dataset` is
    /// the dataset the engine was built over; errs on a shorter one.
    pub fn try_search(
        &self,
        dataset: &Dataset,
        query: &Query,
        kind: QueryKind,
        goal: Goal,
    ) -> Result<Vec<QueryResult>> {
        run(&self.index, dataset, query, kind, goal, Some(self))
    }

    /// The per-lane working buffers of one query.
    pub(crate) fn lanes(&self) -> QueryLanes<'_> {
        QueryLanes {
            engine: self,
            groups: vec![Vec::new(); self.lanes.len()],
            scratches: self.lanes.iter().map(|_| ScoreScratch::new()).collect(),
        }
    }
}

/// The sharded GAT engine behind the common interface. A caller that
/// breaks the trait's contract — `dataset` is the one the engine was
/// built over — with a shorter dataset gets a panic here, as from
/// every other engine; [`ShardedEngine::try_search`] reports it as an
/// error instead.
impl QueryEngine for ShardedEngine {
    fn search(
        &self,
        dataset: &Dataset,
        query: &Query,
        kind: QueryKind,
        goal: Goal,
    ) -> Vec<QueryResult> {
        self.try_search(dataset, query, kind, goal)
            .expect("invariant: queried with the dataset the engine was built over")
    }

    fn name(&self) -> &'static str {
        "GAT-SHARDED"
    }
}

/// One query's fan-out state: the candidates of the current batch
/// grouped by owning lane, and a scoring scratch per lane.
pub(crate) struct QueryLanes<'a> {
    engine: &'a ShardedEngine,
    groups: Vec<Vec<TrajectoryId>>,
    scratches: Vec<ScoreScratch>,
}

impl QueryLanes<'_> {
    /// Routes one retrieved batch to the owning lanes, verifies it
    /// there and offers the survivors to `sink`. Each candidate is
    /// charged to the lane that verifies it, so the lanes'
    /// `candidates_retrieved` sum to the traversal's output.
    ///
    /// With workers to spare and more than one lane holding
    /// candidates, lanes run in parallel and prune against the cutoff
    /// as of the batch start; otherwise they run in lane order against
    /// the live cutoff, like the single-index loop.
    pub(crate) fn verify_batch(
        &mut self,
        verifier: &Verifier<'_>,
        batch: &[TrajectoryId],
        sink: &mut Sink,
    ) {
        let engine = self.engine;
        let t0 = Instant::now();
        for &tr in batch {
            let lane = engine.owner[tr.index()] as usize;
            engine.lanes[lane].record_candidate();
            self.groups[lane].push(tr);
        }
        engine.add_router_busy(t0.elapsed().as_nanos() as u64);

        let active = self.groups.iter().filter(|g| !g.is_empty()).count();
        if engine.threads > 1 && active > 1 {
            for (d, tr) in self.verify_parallel(verifier, sink.cutoff()) {
                sink.offer(d, tr);
            }
        } else {
            let lanes = engine.lanes.iter().zip(&self.groups);
            for ((lane, group), scratch) in lanes.zip(&mut self.scratches) {
                for &tr in group {
                    if let Some(d) = verifier.verify(lane, tr, sink.cutoff(), scratch) {
                        sink.offer(d, tr);
                    }
                }
            }
        }
        for g in &mut self.groups {
            g.clear();
        }
    }

    /// Verifies every non-empty group on its own scoped worker thread,
    /// pruning against `dk`. Results come back in lane order; panics
    /// propagate.
    fn verify_parallel(&mut self, verifier: &Verifier<'_>, dk: f64) -> Vec<(f64, TrajectoryId)> {
        // The coordinating thread's per-query counter context (if any)
        // must follow the work onto the verification workers, or the
        // query's I/O counts would vanish into untracked threads.
        let sink = atsq_obs::current_sink();
        let found: Vec<Vec<(f64, TrajectoryId)>> = std::thread::scope(|scope| {
            let lanes = self.engine.lanes.iter().zip(&self.groups);
            let handles: Vec<_> = lanes
                .zip(&mut self.scratches)
                .filter(|((_, group), _)| !group.is_empty())
                .map(|((lane, group), scratch)| {
                    let sink = sink.clone();
                    scope.spawn(move || {
                        let _ctx = sink.map(atsq_obs::CounterScope::enter);
                        group
                            .iter()
                            .filter_map(|&tr| {
                                verifier.verify(lane, tr, dk, scratch).map(|d| (d, tr))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        found.concat()
    }
}

/// Multiplicative (Fibonacci) hash of each id `0..n` onto a lane.
fn hash_assign(n: usize, shards: usize) -> Vec<u32> {
    (0..n as u64)
        .map(|id| ((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % shards as u64) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::search;
    use atsq_types::{ActivitySet, DatasetBuilder, Point, QueryPoint, TrajectoryPoint};

    fn dataset(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for i in 0..8 {
            b.observe_activity(&format!("a{i}"));
        }
        // Deterministic pseudo-random layout, so every lane owns
        // candidates.
        let mut x: u64 = 0x5DEECE66D;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..n {
            let len = 1 + (next() % 4) as usize;
            let pts = (0..len)
                .map(|_| {
                    let px = (next() % 1000) as f64 / 10.0;
                    let py = (next() % 1000) as f64 / 10.0;
                    let acts = ActivitySet::from_raw([(next() % 8) as u32, (next() % 8) as u32]);
                    TrajectoryPoint::new(Point::new(px, py), acts)
                })
                .collect();
            b.push_trajectory(pts);
        }
        b.finish().unwrap()
    }

    /// Both kinds, top-k and range.
    fn plans() -> Vec<(QueryKind, Goal)> {
        let goals = [1usize, 3, 9]
            .map(Goal::TopK)
            .into_iter()
            .chain([5.0, 40.0].map(Goal::Range));
        goals
            .flat_map(|goal| [(QueryKind::Atsq, goal), (QueryKind::Oatsq, goal)])
            .collect()
    }

    fn query(x: f64, y: f64) -> Query {
        Query::new(vec![
            QueryPoint::new(Point::new(x, y), ActivitySet::from_raw([0, 1])),
            QueryPoint::new(Point::new(x + 10.0, y), ActivitySet::from_raw([2])),
        ])
        .unwrap()
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let d = dataset(50);
        for s in [1usize, 2, 3, 7] {
            let engine = ShardedEngine::build(&d, s, Partition::Hash).unwrap();
            assert_eq!(engine.lanes.len(), s);
            // One owner per trajectory, every owner a real lane.
            assert_eq!(engine.owner.len(), d.len());
            assert!(engine.owner.iter().all(|&lane| (lane as usize) < s));
        }
    }

    #[test]
    fn sharded_matches_single_index_exactly() {
        let d = dataset(60);
        let single = GatIndex::build(&d).unwrap();
        for s in [1usize, 2, 3, 7] {
            let engine = ShardedEngine::build(&d, s, Partition::Hash).unwrap();
            for q in [query(10.0, 10.0), query(50.0, 80.0)] {
                for (kind, goal) in plans() {
                    assert_eq!(
                        engine.try_search(&d, &q, kind, goal).unwrap(),
                        search(&single, &d, &q, kind, goal).unwrap(),
                        "{kind:?} {goal:?} diverged (S={s})"
                    );
                }
            }
        }
    }

    #[test]
    fn per_shard_stats_accumulate_and_reset() {
        let d = dataset(40);
        let engine = ShardedEngine::build(&d, 4, Partition::Hash).unwrap();
        engine.atsq(&d, &query(20.0, 20.0), 5);
        let stats = engine.per_shard_stats();
        assert_eq!(stats.len(), 4);
        assert!(
            stats.iter().map(|s| s.candidates_retrieved).sum::<u64>() > 0,
            "{stats:?}"
        );
        engine.reset_stats();
        assert!(engine
            .per_shard_stats()
            .iter()
            .all(|s| s.candidates_retrieved == 0));
    }

    #[test]
    fn zero_shards_is_rejected_and_empty_dataset_works() {
        let d = dataset(10);
        assert!(ShardedEngine::build(&d, 0, Partition::Hash).is_err());
        // An index over other data cannot be sharded over this dataset.
        let other = GatIndex::build(&dataset(4)).unwrap();
        assert!(ShardedEngine::from_index(other, &d, 2, Partition::Hash).is_err());
        let empty = DatasetBuilder::new().finish().unwrap();
        let engine = ShardedEngine::build(&empty, 3, Partition::Hash).unwrap();
        let q = Query::new(vec![QueryPoint::new(
            Point::new(0.0, 0.0),
            ActivitySet::from_raw([1]),
        )])
        .unwrap();
        assert!(engine.atsq(&empty, &q, 3).is_empty());
        assert!(engine.atsq_range(&empty, &q, 10.0).is_empty());
    }

    /// The scoped-thread verification fan-out must return exactly the
    /// sequential answer. `threads` collapses to 1 on a single-core
    /// host, so force the parallel path explicitly.
    #[test]
    fn parallel_verify_path_matches_single_index() {
        let d = dataset(60);
        let single = GatIndex::build(&d).unwrap();
        let mut engine = ShardedEngine::build(&d, 4, Partition::Hash).unwrap();
        engine.threads = 3;
        for q in [query(10.0, 10.0), query(50.0, 80.0)] {
            for (kind, goal) in plans() {
                assert_eq!(
                    engine.try_search(&d, &q, kind, goal).unwrap(),
                    search(&single, &d, &q, kind, goal).unwrap(),
                    "parallel {kind:?} {goal:?} diverged"
                );
            }
        }
    }

    /// The one traversal generates exactly the single-index candidate
    /// stream, attributed to owning lanes: the per-lane candidate
    /// counts sum to the single index's count, and traversal work
    /// lands on the router counters.
    #[test]
    fn shared_traversal_work_sums_to_single_index() {
        let d = dataset(60);
        let single = GatIndex::build(&d).unwrap();
        let engine = ShardedEngine::build(&d, 4, Partition::Hash).unwrap();
        let q = query(20.0, 20.0);
        let want = search(&single, &d, &q, QueryKind::Atsq, Goal::TopK(5)).unwrap();
        let single_stats = single.stats().snapshot();

        assert_eq!(engine.atsq(&d, &q, 5), want);
        let sharded_candidates: u64 = engine
            .per_shard_stats()
            .iter()
            .map(|s| s.candidates_retrieved)
            .sum();
        assert_eq!(
            sharded_candidates, single_stats.candidates_retrieved,
            "sharding must not multiply candidate work"
        );
        let router = engine.router_stats();
        assert_eq!(
            router.candidates_retrieved, 0,
            "candidates are charged to owning lanes, never the router"
        );
        assert_eq!(router.hicl_cold_reads, single_stats.hicl_cold_reads);
        assert!(
            engine.router_busy_ns() > 0,
            "the traversal must accrue router busy time"
        );
        engine.reset_stats();
        assert_eq!(engine.router_busy_ns(), 0);
        assert_eq!(engine.router_stats().hicl_cold_reads, 0);
    }
}
