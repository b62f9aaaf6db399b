//! Query model: a sequence of locations with desired activities (§II),
//! what a search is asked for ([`QueryKind`] × [`Goal`]), the result
//! [`Sink`] every engine collects into, and the [`QueryEngine`] trait.

use crate::activity::ActivitySet;
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::geo::Point;
use crate::trajectory::TrajectoryId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One query location `q` with its desired activity set `q.Φ`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPoint {
    /// The intended location.
    pub loc: Point,
    /// The activities the user wants to perform there (`q.Φ`).
    pub activities: ActivitySet,
}

impl QueryPoint {
    /// Largest `|q.Φ|` a query may request. The matching kernels keep a
    /// dense table over the subsets of `q.Φ` (`2^|q.Φ|` entries), so 20
    /// bounds it at one million f64s — far beyond any realistic query
    /// (the paper's maximum is 5).
    pub const MAX_ACTIVITIES: usize = 20;

    /// Creates a query point.
    pub fn new(loc: Point, activities: ActivitySet) -> Self {
        QueryPoint { loc, activities }
    }
}

/// A similarity query `Q = (q1, …, qm)`.
///
/// For **ATSQ** the order of the points is irrelevant; for **OATSQ**
/// the point order is the intended visiting order.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The query locations in intended order.
    pub points: Vec<QueryPoint>,
}

impl Query {
    /// Creates a query, validating that it is non-empty and that every
    /// query point has finite coordinates (distances to it must rank)
    /// and requests between one and [`QueryPoint::MAX_ACTIVITIES`]
    /// activities (a query point with an empty `q.Φ` has no point match
    /// by Definition 3).
    pub fn new(points: Vec<QueryPoint>) -> Result<Self> {
        if points.is_empty() {
            return Err(Error::InvalidQuery("query has no locations".into()));
        }
        for (i, q) in points.iter().enumerate() {
            if !(q.loc.x.is_finite() && q.loc.y.is_finite()) {
                return Err(Error::InvalidQuery(format!(
                    "query point {i} has non-finite coordinates"
                )));
            }
            if q.activities.is_empty() {
                return Err(Error::InvalidQuery(format!(
                    "query point {i} has an empty activity set"
                )));
            }
            if q.activities.len() > QueryPoint::MAX_ACTIVITIES {
                return Err(Error::InvalidQuery(format!(
                    "query point {i} requests {} activities; at most {} supported",
                    q.activities.len(),
                    QueryPoint::MAX_ACTIVITIES
                )));
            }
        }
        Ok(Query { points })
    }

    /// Number of query locations (`|Q|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the query has no points (never true for validated queries).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Union of all requested activities (`Q.Φ`).
    pub fn all_activities(&self) -> ActivitySet {
        let mut out = ActivitySet::new();
        for q in &self.points {
            out.extend_from(&q.activities);
        }
        out
    }

    /// The query diameter `δ(Q)`: the maximum pairwise distance between
    /// query locations (§VII, "Effect of δ(Q)"). Zero for single-point
    /// queries.
    pub fn diameter(&self) -> f64 {
        let mut best: f64 = 0.0;
        for i in 0..self.points.len() {
            for j in i + 1..self.points.len() {
                best = best.max(self.points[i].loc.dist(&self.points[j].loc));
            }
        }
        best
    }
}

/// One ranked answer of a similarity query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The matched trajectory.
    pub trajectory: TrajectoryId,
    /// Its minimum (order-sensitive) match distance to the query.
    pub distance: f64,
}

impl QueryResult {
    /// Creates a result entry.
    pub fn new(trajectory: TrajectoryId, distance: f64) -> Self {
        QueryResult {
            trajectory,
            distance,
        }
    }
}

/// Sorts results ascending by distance with the trajectory id as a
/// deterministic tie-break, then truncates to `k` — the final step of
/// every engine, kept here so all engines rank identically.
pub fn rank_top_k(mut results: Vec<QueryResult>, k: usize) -> Vec<QueryResult> {
    results.sort_by_key(|r| Ranked(r.distance, r.trajectory));
    results.truncate(k);
    results
}

/// Which of the paper's two query types to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Order-free ATSQ (§II), ranked by `Dmm`.
    Atsq,
    /// Order-sensitive OATSQ (§VI), ranked by `Dmom`.
    Oatsq,
}

/// What a query is asked to return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Goal {
    /// The `k` trajectories with the smallest distance (Algorithm 1).
    TopK(usize),
    /// Every trajectory within distance `tau`, ascending: the radius
    /// replaces the k-th best distance in every pruning test.
    Range(f64),
}

impl Goal {
    /// Whether no trajectory can satisfy the goal — `k = 0`, or a
    /// negative or NaN radius — so an engine can answer before any
    /// retrieval or fetch.
    pub fn wants_nothing(self) -> bool {
        match self {
            Goal::TopK(k) => k == 0,
            // A NaN radius admits nothing, like a negative one.
            Goal::Range(tau) => tau.is_nan() || tau < 0.0,
        }
    }
}

/// A `(distance, id)` pair under the ranking order of [`rank_top_k`].
#[derive(Debug, Clone, Copy)]
struct Ranked(f64, TrajectoryId);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(Ordering::Equal)
            .then(self.1.cmp(&other.1))
    }
}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ranked {}

/// The results a search has collected so far, and the distance a
/// candidate must not exceed to still matter.
///
/// Its content is a pure function of the *set* of offered `(dist, id)`
/// pairs — the k smallest under the `(dist, id)` order, or all within
/// the radius — so any evaluation order, and any extra offers of pairs
/// worse than the final k-th, produce the same results. Fanning
/// verification out over lanes leans on exactly this property.
#[derive(Debug)]
pub struct Sink(Kept);

#[derive(Debug)]
enum Kept {
    /// Bounded max-heap whose top is the current k-th best.
    TopK {
        k: usize,
        heap: BinaryHeap<Ranked>,
    },
    Range {
        tau: f64,
        out: Vec<QueryResult>,
    },
}

impl Sink {
    /// An empty sink for `goal`. `n` is the number of trajectories
    /// that could ever be offered: `k` comes off the wire, so the
    /// reservation is bounded by `n`.
    pub fn new(goal: Goal, n: usize) -> Self {
        Sink(match goal {
            Goal::TopK(k) => Kept::TopK {
                k,
                heap: BinaryHeap::with_capacity(k.min(n) + 1),
            },
            Goal::Range(tau) => Kept::Range {
                tau,
                out: Vec::new(),
            },
        })
    }

    /// `Dk` of Algorithm 1: the live k-th best distance (`∞` until k
    /// results exist), or the radius. It only ever over-estimates the
    /// final cutoff, so pruning *strictly* against it (or against any
    /// earlier value of it, as parallel lanes do) never drops a result
    /// or changes a tie-break.
    pub fn cutoff(&self) -> f64 {
        match &self.0 {
            Kept::TopK { k, heap } if heap.len() == *k => {
                heap.peek().map_or(f64::INFINITY, |r| r.0)
            }
            Kept::TopK { .. } => f64::INFINITY,
            Kept::Range { tau, .. } => *tau,
        }
    }

    /// Offers one scored trajectory.
    pub fn offer(&mut self, dist: f64, tr: TrajectoryId) {
        match &mut self.0 {
            Kept::TopK { k, heap } => {
                heap.push(Ranked(dist, tr));
                if heap.len() > *k {
                    heap.pop();
                }
            }
            Kept::Range { tau, out } => {
                if dist <= *tau {
                    out.push(QueryResult::new(tr, dist));
                }
            }
        }
    }

    /// The collected results, ranked as [`rank_top_k`] ranks them.
    pub fn finish(self) -> Vec<QueryResult> {
        match self.0 {
            Kept::TopK { k, heap } => {
                let results = heap.into_iter().map(|r| QueryResult::new(r.1, r.0));
                rank_top_k(results.collect(), k)
            }
            Kept::Range { out, .. } => rank_top_k(out, usize::MAX),
        }
    }
}

/// The paper's two query types, top-k or range, behind one interface.
///
/// An engine implements [`QueryEngine::search`] once; the four named
/// queries are one-line calls of it. Every engine returns the same
/// answer for the same arguments, ties included.
pub trait QueryEngine {
    /// Runs one query of `kind` for `goal` over `dataset`, which must
    /// be the dataset the engine was built over (engines may panic on
    /// any other).
    fn search(
        &self,
        dataset: &Dataset,
        query: &Query,
        kind: QueryKind,
        goal: Goal,
    ) -> Vec<QueryResult>;

    /// Short engine label for reports ("GAT", "IL", "RT", "IRT").
    fn name(&self) -> &'static str;

    /// Activity Trajectory Similarity Query: top-`k` by `Dmm`.
    fn atsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        self.search(dataset, query, QueryKind::Atsq, Goal::TopK(k))
    }

    /// Order-sensitive ATSQ: top-`k` by `Dmom`.
    fn oatsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        self.search(dataset, query, QueryKind::Oatsq, Goal::TopK(k))
    }

    /// Every trajectory with `Dmm(Q, Tr) ≤ tau`, ascending.
    fn atsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        self.search(dataset, query, QueryKind::Atsq, Goal::Range(tau))
    }

    /// Every trajectory with `Dmom(Q, Tr) ≤ tau`, ascending.
    fn oatsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        self.search(dataset, query, QueryKind::Oatsq, Goal::Range(tau))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp(x: f64, y: f64, acts: &[u32]) -> QueryPoint {
        QueryPoint::new(
            Point::new(x, y),
            ActivitySet::from_raw(acts.iter().copied()),
        )
    }

    #[test]
    fn new_rejects_empty_query() {
        assert!(Query::new(vec![]).is_err());
    }

    #[test]
    fn new_rejects_empty_activity_set() {
        assert!(Query::new(vec![qp(0.0, 0.0, &[])]).is_err());
        assert!(Query::new(vec![qp(0.0, 0.0, &[1]), qp(1.0, 1.0, &[])]).is_err());
    }

    #[test]
    fn new_rejects_non_finite_coordinates() {
        for (x, y) in [
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
            (f64::INFINITY, 0.0),
            (0.0, f64::NEG_INFINITY),
        ] {
            let err = Query::new(vec![qp(0.0, 0.0, &[1]), qp(x, y, &[1])]).unwrap_err();
            assert!(matches!(err, Error::InvalidQuery(_)), "({x}, {y})");
        }
    }

    #[test]
    fn new_caps_activities_per_point() {
        let max: Vec<u32> = (0..QueryPoint::MAX_ACTIVITIES as u32).collect();
        assert!(Query::new(vec![qp(0.0, 0.0, &max)]).is_ok());
        let over: Vec<u32> = (0..=QueryPoint::MAX_ACTIVITIES as u32).collect();
        let err = Query::new(vec![qp(0.0, 0.0, &over)]).unwrap_err();
        assert!(matches!(err, Error::InvalidQuery(_)), "{err}");
    }

    #[test]
    fn all_activities_unions() {
        let q = Query::new(vec![qp(0.0, 0.0, &[1, 2]), qp(1.0, 1.0, &[2, 3])]).unwrap();
        assert_eq!(q.all_activities(), ActivitySet::from_raw([1, 2, 3]));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn diameter_is_max_pairwise() {
        let q = Query::new(vec![
            qp(0.0, 0.0, &[1]),
            qp(3.0, 4.0, &[1]),
            qp(1.0, 1.0, &[1]),
        ])
        .unwrap();
        assert!((q.diameter() - 5.0).abs() < 1e-12);
        let single = Query::new(vec![qp(0.0, 0.0, &[1])]).unwrap();
        assert_eq!(single.diameter(), 0.0);
    }

    #[test]
    fn rank_top_k_sorts_and_truncates() {
        let r = vec![
            QueryResult::new(TrajectoryId(2), 5.0),
            QueryResult::new(TrajectoryId(0), 1.0),
            QueryResult::new(TrajectoryId(1), 5.0),
            QueryResult::new(TrajectoryId(3), 0.5),
        ];
        let top = rank_top_k(r, 3);
        assert_eq!(
            top.iter().map(|x| x.trajectory.0).collect::<Vec<_>>(),
            vec![3, 0, 1]
        );
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn topk_keeps_k_smallest_in_order() {
        let mut t = Sink::new(Goal::TopK(2), 10);
        assert_eq!(t.cutoff(), f64::INFINITY);
        t.offer(5.0, TrajectoryId(1));
        assert_eq!(t.cutoff(), f64::INFINITY); // only one entry so far
        t.offer(3.0, TrajectoryId(2));
        assert_eq!(t.cutoff(), 5.0);
        t.offer(4.0, TrajectoryId(3));
        assert_eq!(t.cutoff(), 4.0);
        let res = t.finish();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].trajectory, TrajectoryId(2));
        assert_eq!(res[1].trajectory, TrajectoryId(3));
    }

    #[test]
    fn topk_tie_breaks_by_id() {
        let mut t = Sink::new(Goal::TopK(2), 10);
        t.offer(1.0, TrajectoryId(9));
        t.offer(1.0, TrajectoryId(3));
        t.offer(1.0, TrajectoryId(5));
        let res = t.finish();
        assert_eq!(res[0].trajectory, TrajectoryId(3));
        assert_eq!(res[1].trajectory, TrajectoryId(5));
    }
}
