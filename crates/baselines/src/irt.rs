//! IRT — the IR-tree baseline (§III-C).
//!
//! Identical search strategy to the RT baseline, but the tree is an
//! IR-tree: every node carries the union of the activities below it,
//! and each query point's incremental iterator skips subtrees that
//! contain none of that point's activities. The paper expects it to
//! "examine fewer nodes than the R-tree based method".

use crate::common::{venues, Venue};
use crate::rt::run_incremental;
use atsq_irtree::IrTree;
use atsq_matching::candidate_distance;
use atsq_types::{Dataset, Goal, Query, QueryEngine, QueryKind, QueryResult, TrajectoryId};
use std::sync::atomic::{AtomicU64, Ordering};

/// The IR-tree baseline engine.
#[derive(Debug)]
pub struct IrtEngine {
    tree: IrTree<Venue>,
    fetches: AtomicU64,
}

impl IrtEngine {
    /// Bulk-loads the venue IR-tree from a dataset.
    pub fn build(dataset: &Dataset) -> Self {
        IrtEngine {
            tree: IrTree::bulk_load(venues(dataset)),
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
}

impl QueryEngine for IrtEngine {
    /// The RT engine's incremental search, with each query point's
    /// iterator skipping subtrees that hold none of its activities.
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
        let iters: Vec<_> = query
            .points
            .iter()
            .map(|q| self.tree.nearest_with_any_activity(q.loc, &q.activities))
            .collect();
        run_incremental(
            dataset,
            goal,
            iters,
            |it| it.peek_dist(),
            &self.fetches,
            distance,
        )
    }

    fn name(&self) -> &'static str {
        "IRT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::RtEngine;
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
        for n in ["a", "b", "c", "d"] {
            b.observe_activity(n);
        }
        for i in 0..30u32 {
            let x = f64::from(i) * 2.0;
            b.push_trajectory(vec![tp(x, 0.0, &[i % 4]), tp(x + 1.0, 1.0, &[(i + 1) % 4])]);
        }
        b.finish().unwrap()
    }

    #[test]
    fn agrees_with_rt_engine() {
        let d = dataset();
        let irt = IrtEngine::build(&d);
        let rt = RtEngine::build(&d);
        assert_eq!(irt.len(), rt.len());
        let queries = vec![
            Query::new(vec![qp(5.0, 0.0, &[0]), qp(20.0, 0.0, &[1])]).unwrap(),
            Query::new(vec![qp(0.0, 0.0, &[2, 3])]).unwrap(),
            Query::new(vec![
                qp(30.0, 0.0, &[1]),
                qp(31.0, 0.0, &[2]),
                qp(32.0, 0.0, &[3]),
            ])
            .unwrap(),
        ];
        for q in &queries {
            for k in [1, 3, 7] {
                assert_eq!(irt.atsq(&d, q, k), rt.atsq(&d, q, k), "atsq {q:?} k={k}");
                assert_eq!(irt.oatsq(&d, q, k), rt.oatsq(&d, q, k), "oatsq {q:?} k={k}");
            }
        }
    }

    #[test]
    fn prunes_to_rare_activity() {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for n in ["common", "rare"] {
            b.observe_activity(n);
        }
        for i in 0..50u32 {
            b.push_trajectory(vec![tp(f64::from(i), 0.0, &[0])]);
        }
        b.push_trajectory(vec![tp(500.0, 0.0, &[1])]);
        let d = b.finish().unwrap();
        let e = IrtEngine::build(&d);
        let q = Query::new(vec![qp(0.0, 0.0, &[1])]).unwrap();
        let res = e.atsq(&d, &q, 1);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].trajectory.0, 50);
        assert_eq!(res[0].distance, 500.0);
    }

    #[test]
    fn empty_cases() {
        let d = dataset();
        let e = IrtEngine::build(&d);
        let q = Query::new(vec![qp(0.0, 0.0, &[0])]).unwrap();
        assert!(e.atsq(&d, &q, 0).is_empty());
        let q_none = Query::new(vec![qp(0.0, 0.0, &[42])]).unwrap();
        assert!(e.atsq(&d, &q_none, 5).is_empty());
        assert!(e.oatsq(&d, &q_none, 5).is_empty());
    }
}
