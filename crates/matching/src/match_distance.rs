//! `Dmm(Q, Tr)` — the minimum match distance (Definition 6) — the
//! purely spatial best-match lower bound `Dbm` (Lemma 2), and the
//! per-kind candidate distance the baselines rank by.

use crate::order_match::{min_order_match_distance, order_feasible};
use crate::point_match::{candidate_points, dmpm_from_sorted_with, IncrementalCover, QueryMask};
use atsq_types::{Query, QueryKind, TrajectoryPoint};

/// Minimum match distance `Dmm(Q, Tr)`.
///
/// By Lemma 1 the minimum match decomposes into independent minimum
/// point matches, so this is the sum of Algorithm-3 results over the
/// query points. Returns `None` when any query point has no point
/// match in the trajectory (the trajectory is not a match, Def. 5).
pub fn min_match_distance(query: &Query, points: &[TrajectoryPoint]) -> Option<f64> {
    let mut total = 0.0;
    for q in &query.points {
        let qmask = QueryMask::new(&q.activities);
        let cp = candidate_points(&q.loc, &qmask, points);
        let mut table = IncrementalCover::new(&qmask);
        total += dmpm_from_sorted_with(&mut table, &cp)?;
    }
    Some(total)
}

/// The distance a query of `kind` ranks a candidate by: `Dmm`, or
/// `Dmom` behind the MIB pre-filter with `dk` (the caller's current
/// k-th best or radius) as Algorithm 4's early-exit threshold; `Dmm`
/// ignores `dk`. `None` when the trajectory is not a match.
pub fn candidate_distance(
    kind: QueryKind,
    query: &Query,
    points: &[TrajectoryPoint],
    dk: f64,
) -> Option<f64> {
    match kind {
        QueryKind::Atsq => min_match_distance(query, points),
        QueryKind::Oatsq if order_feasible(query, points) => {
            min_order_match_distance(query, points, dk)
        }
        QueryKind::Oatsq => None,
    }
}

/// Best match distance `Dbm(Q, Tr) = Σ_q min_p d(q, p)` — the distance
/// of Chen et al.'s k-BCT query, ignoring activities entirely.
///
/// Lemma 2: `Dbm(Q, Tr) ≤ Dmm(Q, Tr)`, which makes this the
/// termination threshold of the R-tree baseline. Returns `+∞` for an
/// empty trajectory (no nearest point exists).
pub fn best_match_distance(query: &Query, points: &[TrajectoryPoint]) -> f64 {
    query
        .points
        .iter()
        .map(|q| {
            points
                .iter()
                .map(|p| q.loc.dist(&p.loc))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::{ActivitySet, Point, QueryPoint};

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

    #[test]
    fn dmm_sums_per_query_point() {
        let query = Query::new(vec![qp(0.0, 0.0, &[1]), qp(10.0, 0.0, &[2])]).unwrap();
        let tr = vec![tp(1.0, 0.0, &[1]), tp(9.0, 0.0, &[2])];
        assert_eq!(min_match_distance(&query, &tr), Some(2.0));
    }

    #[test]
    fn dmm_none_when_activity_missing() {
        let query = Query::new(vec![qp(0.0, 0.0, &[1]), qp(1.0, 0.0, &[9])]).unwrap();
        let tr = vec![tp(0.0, 0.0, &[1])];
        assert_eq!(min_match_distance(&query, &tr), None);
    }

    #[test]
    fn dbm_lower_bounds_dmm() {
        // Nearest point lacks the activity, so Dmm must use a farther
        // point while Dbm happily uses the nearest one.
        let query = Query::new(vec![qp(0.0, 0.0, &[1])]).unwrap();
        let tr = vec![tp(1.0, 0.0, &[7]), tp(5.0, 0.0, &[1])];
        let dbm = best_match_distance(&query, &tr);
        let dmm = min_match_distance(&query, &tr).unwrap();
        assert_eq!(dbm, 1.0);
        assert_eq!(dmm, 5.0);
        assert!(dbm <= dmm);
    }

    #[test]
    fn dbm_empty_trajectory_is_infinite() {
        let query = Query::new(vec![qp(0.0, 0.0, &[1])]).unwrap();
        assert_eq!(best_match_distance(&query, &[]), f64::INFINITY);
    }

    /// The running example of Fig. 1: Tr2 must beat Tr1 on Dmm even
    /// though Tr1 is geometrically closer, which is the paper's whole
    /// motivation.
    #[test]
    fn figure_one_motivating_example() {
        // We reconstruct the distances via explicit point matches using
        // the paper's distance matrices rather than coordinates; here it
        // suffices to verify with the matrices interpreted as 1-D
        // layouts is impossible, so we instead verify the ordering on a
        // faithful synthetic layout in tests/paper_examples.rs. This
        // unit test covers the Dbm-vs-Dmm inversion in miniature.
        let query = Query::new(vec![qp(0.0, 0.0, &[1, 2])]).unwrap();
        let tr_close_wrong = vec![tp(0.1, 0.0, &[3])]; // near but useless
        let tr_far_right = vec![tp(2.0, 0.0, &[1]), tp(3.0, 0.0, &[2])];
        assert_eq!(min_match_distance(&query, &tr_close_wrong), None);
        assert_eq!(min_match_distance(&query, &tr_far_right), Some(5.0));
        assert!(
            best_match_distance(&query, &tr_close_wrong)
                < best_match_distance(&query, &tr_far_right)
        );
    }
}
