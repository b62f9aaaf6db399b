//! IL — the inverted-list baseline (§III-A).
//!
//! Activities are aggregated per trajectory and an inverted list maps
//! each activity to the trajectories containing it. A query first
//! intersects the lists of *all* its activities (trajectories missing
//! any activity cannot be matches), then evaluates the match distance
//! of every surviving candidate sequentially. No spatial pruning at
//! all — the paper's running times show it flat in `k` and `δ(Q)` but
//! badly beaten by every spatial method.

use atsq_matching::candidate_distance;
use atsq_types::{
    ActivityId, Dataset, Goal, Query, QueryEngine, QueryKind, QueryResult, Sink, TrajectoryId,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The inverted-list engine.
#[derive(Debug, Default)]
pub struct IlEngine {
    lists: HashMap<ActivityId, Vec<TrajectoryId>>,
    /// Trajectory fetches: every candidate evaluation reads one full
    /// trajectory, which the paper's disk-resident database serves
    /// with one random I/O. Used for disk-adjusted cost reporting.
    fetches: AtomicU64,
}

impl IlEngine {
    /// Builds the per-activity inverted lists.
    pub fn build(dataset: &Dataset) -> Self {
        let mut lists: HashMap<ActivityId, Vec<TrajectoryId>> = HashMap::new();
        for tr in dataset.trajectories() {
            for a in tr.all_activities().iter() {
                lists.entry(a).or_default().push(tr.id);
            }
        }
        // Lists are naturally sorted (trajectories visited in id order).
        IlEngine {
            lists,
            fetches: AtomicU64::new(0),
        }
    }

    /// Trajectory fetches performed since the last reset.
    pub fn fetches(&self) -> u64 {
        // ordering: Relaxed — advisory monotone fetch tally.
        self.fetches.load(Ordering::Relaxed)
    }

    /// Resets the fetch counter.
    pub fn reset_fetches(&self) {
        // ordering: Relaxed — advisory stat reset; callers quiesce.
        self.fetches.store(0, Ordering::Relaxed);
    }

    /// The trajectories containing `act`.
    pub fn list(&self, act: ActivityId) -> &[TrajectoryId] {
        self.lists.get(&act).map_or(&[][..], Vec::as_slice)
    }

    /// Candidates containing *every* activity of the query: the
    /// intersection of the per-activity lists, smallest list first.
    pub fn candidates(&self, query: &Query) -> Vec<TrajectoryId> {
        let all = query.all_activities();
        if all.is_empty() {
            return Vec::new();
        }
        let mut lists: Vec<&[TrajectoryId]> = all.iter().map(|a| self.list(a)).collect();
        lists.sort_by_key(|l| l.len());
        if lists[0].is_empty() {
            return Vec::new();
        }
        let mut result: Vec<TrajectoryId> = lists[0].to_vec();
        for l in &lists[1..] {
            result.retain(|tr| l.binary_search(tr).is_ok());
            if result.is_empty() {
                break;
            }
        }
        result
    }

    /// ATSQ by exhaustive evaluation of the activity-filtered
    /// candidates ([`QueryEngine::atsq`], callable without the trait).
    pub fn atsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        self.search(dataset, query, QueryKind::Atsq, Goal::TopK(k))
    }

    /// OATSQ by exhaustive evaluation ([`QueryEngine::oatsq`], callable
    /// without the trait).
    pub fn oatsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        self.search(dataset, query, QueryKind::Oatsq, Goal::TopK(k))
    }
}

impl QueryEngine for IlEngine {
    /// Evaluates every activity-filtered candidate in list order, with
    /// the running cutoff feeding Algorithm 4's early exit for OATSQ.
    fn search(
        &self,
        dataset: &Dataset,
        query: &Query,
        kind: QueryKind,
        goal: Goal,
    ) -> Vec<QueryResult> {
        if goal.wants_nothing() {
            return Vec::new();
        }
        let mut sink = Sink::new(goal, dataset.len());
        for tr in self.candidates(query) {
            // ordering: Relaxed — independent monotone tally.
            self.fetches.fetch_add(1, Ordering::Relaxed);
            let points = &dataset.trajectory(tr).points;
            if let Some(d) = candidate_distance(kind, query, points, sink.cutoff()) {
                sink.offer(d, tr);
            }
        }
        sink.finish()
    }

    fn name(&self) -> &'static str {
        "IL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::{ActivitySet, DatasetBuilder, Point, QueryPoint, TrajectoryPoint};

    fn tp(x: f64, acts: &[u32]) -> TrajectoryPoint {
        TrajectoryPoint::new(
            Point::new(x, 0.0),
            ActivitySet::from_raw(acts.iter().copied()),
        )
    }

    fn qp(x: f64, acts: &[u32]) -> QueryPoint {
        QueryPoint::new(
            Point::new(x, 0.0),
            ActivitySet::from_raw(acts.iter().copied()),
        )
    }

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for n in ["a", "b", "c"] {
            b.observe_activity(n);
        }
        b.push_trajectory(vec![tp(0.0, &[0]), tp(1.0, &[1])]); // Tr0: a,b
        b.push_trajectory(vec![tp(5.0, &[0])]); // Tr1: a only
        b.push_trajectory(vec![tp(2.0, &[0, 1, 2])]); // Tr2: all
        b.finish().unwrap()
    }

    #[test]
    fn candidates_require_all_activities() {
        let d = dataset();
        let e = IlEngine::build(&d);
        let q = Query::new(vec![qp(0.0, &[0]), qp(1.0, &[1])]).unwrap();
        let c = e.candidates(&q);
        assert_eq!(c, vec![TrajectoryId(0), TrajectoryId(2)]);
        let q2 = Query::new(vec![qp(0.0, &[2])]).unwrap();
        assert_eq!(e.candidates(&q2), vec![TrajectoryId(2)]);
        let q3 = Query::new(vec![qp(0.0, &[9])]).unwrap();
        assert!(e.candidates(&q3).is_empty());
    }

    #[test]
    fn atsq_ranks_candidates() {
        let d = dataset();
        let e = IlEngine::build(&d);
        let q = Query::new(vec![qp(0.0, &[0]), qp(1.0, &[1])]).unwrap();
        let res = e.atsq(&d, &q, 2);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].trajectory, TrajectoryId(0));
        assert_eq!(res[0].distance, 0.0);
        assert_eq!(res[1].trajectory, TrajectoryId(2));
        assert_eq!(res[1].distance, 3.0); // |2-0| + |2-1|
    }

    #[test]
    fn oatsq_filters_wrong_order() {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for n in ["a", "b"] {
            b.observe_activity(n);
        }
        b.push_trajectory(vec![tp(1.0, &[1]), tp(0.0, &[0])]); // b then a
        let d = b.finish().unwrap();
        let e = IlEngine::build(&d);
        let q = Query::new(vec![qp(0.0, &[0]), qp(1.0, &[1])]).unwrap();
        assert_eq!(e.atsq(&d, &q, 1).len(), 1);
        assert!(e.oatsq(&d, &q, 1).is_empty());
    }
}
