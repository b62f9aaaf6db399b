//! Query model: a sequence of locations with desired activities (§II).

use crate::activity::ActivitySet;
use crate::error::{Error, Result};
use crate::geo::Point;
use crate::trajectory::TrajectoryId;

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
    results.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.trajectory.cmp(&b.trajectory))
    });
    results.truncate(k);
    results
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
}
