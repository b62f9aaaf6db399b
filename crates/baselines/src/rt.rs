//! RT — the R-tree baseline (§III-B).
//!
//! All trajectory points are indexed in a single R-tree. The search
//! adapts the k-BCT strategy of Chen et al. \[20\]: every query point
//! drives its own incremental nearest-neighbour iterator; venues are
//! consumed globally nearest-first; each newly discovered trajectory is
//! evaluated in full. The frontier distances of the iterators sum to a
//! lower bound on the best match distance `Dbm` of every undiscovered
//! trajectory, and Lemma 2 (`Dbm ≤ Dmm`) plus Lemma 3 (`Dmm ≤ Dmom`)
//! turn that into the termination test for both query types.

use crate::common::{venues, Venue};
use atsq_matching::{best_match_distance, candidate_distance};
use atsq_rtree::{NearestIter, RTree};
use atsq_types::{Dataset, Goal, Query, QueryEngine, QueryKind, QueryResult, Sink, TrajectoryId};
use std::sync::atomic::{AtomicU64, Ordering};

/// The R-tree baseline engine.
#[derive(Debug)]
pub struct RtEngine {
    tree: RTree<Venue>,
    fetches: AtomicU64,
}

impl RtEngine {
    /// Bulk-loads the point R-tree from a dataset.
    pub fn build(dataset: &Dataset) -> Self {
        RtEngine {
            tree: RTree::bulk_load(venues(dataset)),
            fetches: AtomicU64::new(0),
        }
    }

    /// Trajectory fetches (one per evaluated candidate) since reset.
    pub fn fetches(&self) -> u64 {
        // ordering: Relaxed — advisory monotone fetch tally.
        self.fetches.load(Ordering::Relaxed)
    }

    /// Resets the fetch counter.
    pub fn reset_fetches(&self) {
        // ordering: Relaxed — advisory stat reset; callers quiesce.
        self.fetches.store(0, Ordering::Relaxed);
    }

    /// Number of indexed venues.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// One incremental nearest-venue iterator per query point.
    fn iters(&self, query: &Query) -> Vec<NearestIter<'_, Venue, ()>> {
        query
            .points
            .iter()
            .map(|q| self.tree.nearest_iter(q.loc))
            .collect()
    }

    /// The k-BCT query of Chen et al. \[20\]: top-`k` by the purely
    /// spatial best match distance `Dbm` (no activities). This is the
    /// query the paper's Fig. 1 shows failing for activity planning —
    /// provided for comparison studies.
    pub fn kbct(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        let dbm = |tr: TrajectoryId, _dk: f64| {
            let d = best_match_distance(query, &dataset.trajectory(tr).points);
            d.is_finite().then_some(d)
        };
        let iters = self.iters(query);
        run_incremental(
            dataset,
            Goal::TopK(k),
            iters,
            NearestIter::peek_dist,
            &self.fetches,
            dbm,
        )
    }
}

impl QueryEngine for RtEngine {
    fn search(
        &self,
        dataset: &Dataset,
        query: &Query,
        kind: QueryKind,
        goal: Goal,
    ) -> Vec<QueryResult> {
        let distance = |tr: TrajectoryId, dk: f64| {
            candidate_distance(kind, query, &dataset.trajectory(tr).points, dk)
        };
        let iters = self.iters(query);
        run_incremental(
            dataset,
            goal,
            iters,
            NearestIter::peek_dist,
            &self.fetches,
            distance,
        )
    }

    fn name(&self) -> &'static str {
        "RT"
    }
}

/// The one incremental loop of the RT and IR-tree engines, for every
/// query kind and goal and for k-BCT: generic over the per-query-point
/// iterator type, and taking the candidate distance — called with the
/// sink's live cutoff as the early-exit threshold — as an argument.
///
/// `peek` returns a lower bound on the next yield of an iterator (the
/// tree's heap head); `None` means exhausted, which contributes an
/// infinite frontier term (no undiscovered trajectory can serve that
/// query point any more).
pub(crate) fn run_incremental<'a, I>(
    dataset: &Dataset,
    goal: Goal,
    mut iters: Vec<I>,
    peek: impl Fn(&I) -> Option<f64>,
    fetches: &AtomicU64,
    distance: impl Fn(TrajectoryId, f64) -> Option<f64>,
) -> Vec<QueryResult>
where
    I: Iterator<Item = atsq_rtree::nn::Neighbor<'a, Venue>>,
{
    if goal.wants_nothing() || dataset.is_empty() {
        return Vec::new();
    }
    let mut sink = Sink::new(goal, dataset.len());
    let mut seen = vec![false; dataset.len()];

    loop {
        // Frontier lower bound: Σ_i peek_i (∞ once any iterator dries
        // up — then no unseen trajectory can match that query point).
        let mut frontier_sum = 0.0f64;
        let mut best_idx: Option<(usize, f64)> = None;
        for (i, it) in iters.iter().enumerate() {
            match peek(it) {
                Some(d) => {
                    frontier_sum += d;
                    if best_idx.is_none_or(|(_, bd)| d < bd) {
                        best_idx = Some((i, d));
                    }
                }
                None => frontier_sum = f64::INFINITY,
            }
        }

        // Lemma-2 termination: the cutoff (k-th best or radius)
        // strictly beats every undiscovered trajectory's lower bound.
        // Strict comparison matters for determinism: distance ties
        // must all be discovered so every engine breaks them by
        // trajectory id.
        if sink.cutoff() < frontier_sum {
            break;
        }
        let Some((idx, _)) = best_idx else { break };
        let Some(neighbor) = iters[idx].next() else {
            break;
        };
        let tr: TrajectoryId = neighbor.data.trajectory;
        if seen[tr.index()] {
            continue;
        }
        seen[tr.index()] = true;
        // ordering: Relaxed — independent monotone tally.
        fetches.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = distance(tr, sink.cutoff()) {
            sink.offer(d, tr);
        }
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::{ActivitySet, DatasetBuilder, Point, QueryPoint, TrajectoryPoint};

    fn tp(x: f64, y: f64, acts: &[u32]) -> TrajectoryPoint {
        TrajectoryPoint::new(
            Point::new(x, y),
            ActivitySet::from_raw(acts.iter().copied()),
        )
    }

    fn qp(x: f64, y: f64, acts: &[u32]) -> QueryPoint {
        QueryPoint::new(
            Point::new(x, y),
            ActivitySet::from_raw(acts.iter().copied()),
        )
    }

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for n in ["a", "b"] {
            b.observe_activity(n);
        }
        b.push_trajectory(vec![tp(0.0, 0.0, &[0]), tp(10.0, 0.0, &[1])]);
        b.push_trajectory(vec![tp(1.0, 0.0, &[0]), tp(11.0, 0.0, &[1])]);
        // Geometrically nearest but activity-poor (paper's Fig. 1
        // motivation): must lose to the matching ones.
        b.push_trajectory(vec![tp(0.0, 0.1, &[1]), tp(10.0, 0.1, &[1])]);
        b.push_trajectory(vec![tp(90.0, 90.0, &[0]), tp(95.0, 90.0, &[1])]);
        b.finish().unwrap()
    }

    #[test]
    fn atsq_finds_activity_matches_not_nearest() {
        let d = dataset();
        let e = RtEngine::build(&d);
        assert_eq!(e.len(), 8);
        let q = Query::new(vec![qp(0.0, 0.0, &[0]), qp(10.0, 0.0, &[1])]).unwrap();
        let res = e.atsq(&d, &q, 2);
        let ids: Vec<u32> = res.iter().map(|r| r.trajectory.0).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(res[0].distance, 0.0);
        assert_eq!(res[1].distance, 2.0);
    }

    #[test]
    fn termination_does_not_miss_far_matches() {
        let d = dataset();
        let e = RtEngine::build(&d);
        let q = Query::new(vec![qp(90.0, 90.0, &[0]), qp(95.0, 90.0, &[1])]).unwrap();
        let res = e.atsq(&d, &q, 1);
        assert_eq!(res[0].trajectory, TrajectoryId(3));
        assert_eq!(res[0].distance, 0.0);
    }

    #[test]
    fn oatsq_orders() {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for n in ["a", "b"] {
            b.observe_activity(n);
        }
        // Activities appear in reverse order along the trajectory.
        b.push_trajectory(vec![tp(10.0, 0.0, &[1]), tp(0.0, 0.0, &[0])]);
        b.push_trajectory(vec![tp(0.5, 0.0, &[0]), tp(10.0, 0.0, &[1])]);
        let d = b.finish().unwrap();
        let e = RtEngine::build(&d);
        let q = Query::new(vec![qp(0.0, 0.0, &[0]), qp(10.0, 0.0, &[1])]).unwrap();
        let unordered = e.atsq(&d, &q, 1);
        assert_eq!(unordered[0].trajectory, TrajectoryId(0));
        let ordered = e.oatsq(&d, &q, 1);
        assert_eq!(ordered[0].trajectory, TrajectoryId(1));
        assert!((ordered[0].distance - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_and_k_zero() {
        let d = dataset();
        let e = RtEngine::build(&d);
        let q = Query::new(vec![qp(0.0, 0.0, &[0])]).unwrap();
        assert!(e.atsq(&d, &q, 0).is_empty());
        let empty = DatasetBuilder::new().finish().unwrap();
        let e2 = RtEngine::build(&empty);
        assert!(e2.is_empty());
        assert!(e2.atsq(&empty, &q, 3).is_empty());
    }
}
