//! Witness extraction: not just the match *distance* but the match
//! itself — the point sets `Tr.MPM(q)` / `Tr.MM(Q)` / `Tr.MOM(Q)` of
//! Definitions 4–7.
//!
//! Applications need the witnesses (the venues to actually visit), not
//! only the score that ranked the trajectory. The engines rank with
//! the score-only kernels (cheaper); callers then extract witnesses
//! for the handful of reported trajectories via this module.

use crate::point_match::QueryMask;
use atsq_types::{Query, TrajectoryPoint};

/// The minimum point match of one query point: the matched trajectory
/// point indexes (ascending) and the point-match distance.
#[derive(Debug, Clone, PartialEq)]
pub struct PointMatchWitness {
    /// Indexes into the trajectory's point list.
    pub points: Vec<u32>,
    /// `Dmpm(q, Tr)` realised by those points.
    pub distance: f64,
}

/// Subset-DP table that tracks realising point sets alongside costs.
struct WitnessTable {
    cost: Vec<f64>,
    witness: Vec<Vec<u32>>,
    full: usize,
}

impl WitnessTable {
    fn new(full_mask: u32) -> Self {
        let size = full_mask as usize + 1;
        WitnessTable {
            cost: vec![f64::INFINITY; size],
            witness: vec![Vec::new(); size],
            full: full_mask as usize,
        }
    }

    fn add_point(&mut self, id: u32, dist: f64, mask: u32) {
        let ks = mask as usize;
        if ks == 0 {
            return;
        }
        for s in 0..self.cost.len() {
            if self.cost[s].is_finite() {
                let key = s | ks;
                if key != s {
                    let combined = self.cost[s] + dist;
                    if combined < self.cost[key] {
                        self.cost[key] = combined;
                        let mut w = self.witness[s].clone();
                        w.push(id);
                        self.witness[key] = w;
                    }
                }
            }
        }
        if dist < self.cost[ks] {
            self.cost[ks] = dist;
            self.witness[ks] = vec![id];
        }
    }

    fn result(&self) -> Option<PointMatchWitness> {
        let c = self.cost[self.full];
        c.is_finite().then(|| {
            let mut points = self.witness[self.full].clone();
            points.sort_unstable();
            points.dedup();
            PointMatchWitness {
                points,
                distance: c,
            }
        })
    }
}

/// Minimum point match with witness (Definition 4), over an explicit
/// `(index, distance, activity)` view of the candidate points.
fn dmpm_witness_over(
    qmask: &QueryMask,
    candidates: &[(u32, f64, u32)], // (point index, distance, mask)
) -> Option<PointMatchWitness> {
    let mut table = WitnessTable::new(qmask.full_mask());
    let mut sorted: Vec<&(u32, f64, u32)> = candidates.iter().collect();
    sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    for &&(id, dist, mask) in &sorted {
        if let Some(w) = table.result() {
            if w.distance <= dist {
                return Some(w);
            }
        }
        table.add_point(id, dist, mask);
    }
    table.result()
}

/// `Tr.MPM(q)` — the minimum point match of one query point, with the
/// realising trajectory-point indexes.
pub fn min_point_match_witness(
    q_loc: &atsq_types::Point,
    q_activities: &atsq_types::ActivitySet,
    points: &[TrajectoryPoint],
) -> Option<PointMatchWitness> {
    let qmask = QueryMask::new(q_activities);
    let candidates: Vec<(u32, f64, u32)> = points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let mask = qmask.cover_mask(p.activities.ids());
            (mask != 0).then(|| (i as u32, q_loc.dist(&p.loc), mask))
        })
        .collect();
    dmpm_witness_over(&qmask, &candidates)
}

/// `Tr.MM(Q)` — the minimum match (Definition 6, via Lemma 1): one
/// witness per query point. `None` when the trajectory is no match.
pub fn min_match_witness(
    query: &Query,
    points: &[TrajectoryPoint],
) -> Option<Vec<PointMatchWitness>> {
    query
        .points
        .iter()
        .map(|q| min_point_match_witness(&q.loc, &q.activities, points))
        .collect()
}

/// `Tr.MOM(Q)` — the minimum order-sensitive match (Definition 7):
/// per-query-point witnesses whose indexes respect the query order.
///
/// Runs the Eq. (1) dynamic program with an argmin trace, then
/// re-derives each window's witness. Use only on trajectories already
/// known to be results — it is costlier than the score-only kernel.
pub fn min_order_match_witness(
    query: &Query,
    points: &[TrajectoryPoint],
) -> Option<Vec<PointMatchWitness>> {
    let m = query.points.len();
    let n = points.len();
    if m == 0 || n == 0 {
        return None;
    }

    // G values plus the argmin k for each (i, j).
    let mut g = vec![vec![f64::INFINITY; n + 1]; m + 1];
    let mut arg = vec![vec![0usize; n + 1]; m + 1];
    g[0].fill(0.0);

    let per_query: Vec<(QueryMask, Vec<u32>, Vec<f64>)> = query
        .points
        .iter()
        .map(|q| {
            let qm = QueryMask::new(&q.activities);
            let masks = points
                .iter()
                .map(|p| qm.cover_mask(p.activities.ids()))
                .collect();
            let dists = points.iter().map(|p| q.loc.dist(&p.loc)).collect();
            (qm, masks, dists)
        })
        .collect();

    for i in 1..=m {
        let (qm, masks, dists) = &per_query[i - 1];
        for j in 1..=n {
            let mut table = WitnessTable::new(qm.full_mask());
            for k in (1..=j).rev() {
                if g[i - 1][k].is_infinite() {
                    break;
                }
                table.add_point(k as u32 - 1, dists[k - 1], masks[k - 1]);
                if table.cost[table.full].is_finite() {
                    let total = g[i - 1][k] + table.cost[table.full];
                    if total < g[i][j] {
                        g[i][j] = total;
                        arg[i][j] = k;
                    }
                }
            }
        }
    }

    if g[m][n].is_infinite() {
        return None;
    }

    // Backtrace: recover (k_i, j_i) windows right-to-left, then
    // recompute each window's witness.
    let mut witnesses = vec![
        PointMatchWitness {
            points: Vec::new(),
            distance: 0.0
        };
        m
    ];
    let mut j = n;
    for i in (1..=m).rev() {
        // Find the column where row i attains its final value: g[i][·]
        // is non-increasing, so walk left while the value persists to
        // report the tightest window.
        let mut jj = j;
        while jj > 1 && g[i][jj - 1] <= g[i][j] {
            jj -= 1;
        }
        let k = arg[i][jj];
        debug_assert!(k >= 1, "argmin missing for realised value");
        let (qm, masks, dists) = &per_query[i - 1];
        let candidates: Vec<(u32, f64, u32)> = (k..=jj)
            .filter(|&p| masks[p - 1] != 0)
            .map(|p| (p as u32 - 1, dists[p - 1], masks[p - 1]))
            .collect();
        let w = dmpm_witness_over(qm, &candidates).expect("window realised a finite DP value");
        witnesses[i - 1] = w;
        j = k;
    }
    Some(witnesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_distance::min_match_distance;
    use crate::order_match::min_order_match_distance;
    use atsq_types::{ActivitySet, Point, QueryPoint};

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

    #[test]
    fn point_match_witness_matches_distance_kernel() {
        let pts = vec![tp(1.0, &[1]), tp(2.0, &[2]), tp(5.0, &[1, 2])];
        let q = Point::new(0.0, 0.0);
        let acts = ActivitySet::from_raw([1, 2]);
        let w = min_point_match_witness(&q, &acts, &pts).unwrap();
        assert_eq!(w.distance, 3.0);
        assert_eq!(w.points, vec![0, 1]);
        // Witness activities actually cover the query.
        let mut union = ActivitySet::new();
        for &i in &w.points {
            union.extend_from(&pts[i as usize].activities);
        }
        assert!(acts.is_subset_of(&union));
    }

    #[test]
    fn witness_prefers_single_covering_point_when_cheaper() {
        let pts = vec![tp(4.0, &[1]), tp(4.0, &[2]), tp(3.0, &[1, 2])];
        let w =
            min_point_match_witness(&Point::new(0.0, 0.0), &ActivitySet::from_raw([1, 2]), &pts)
                .unwrap();
        assert_eq!(w.points, vec![2]);
        assert_eq!(w.distance, 3.0);
    }

    #[test]
    fn match_witness_agrees_with_dmm() {
        let pts = vec![tp(0.0, &[1]), tp(3.0, &[2]), tp(7.0, &[3])];
        let query = Query::new(vec![qp(0.0, &[1]), qp(5.0, &[2, 3])]).unwrap();
        let ws = min_match_witness(&query, &pts).unwrap();
        let total: f64 = ws.iter().map(|w| w.distance).sum();
        assert_eq!(Some(total), min_match_distance(&query, &pts));
        assert_eq!(ws[0].points, vec![0]);
        assert_eq!(ws[1].points, vec![1, 2]);
    }

    #[test]
    fn order_witness_respects_order_and_distance() {
        let pts = vec![tp(0.0, &[2]), tp(9.0, &[1]), tp(10.0, &[2])];
        let query = Query::new(vec![qp(8.0, &[1]), qp(0.5, &[2])]).unwrap();
        let ws = min_order_match_witness(&query, &pts).unwrap();
        let total: f64 = ws.iter().map(|w| w.distance).sum();
        let exact = min_order_match_distance(&query, &pts, f64::INFINITY).unwrap();
        assert!((total - exact).abs() < 1e-9, "witness {total} vs {exact}");
        // Order constraint: max index of witness i ≤ min index of i+1.
        for pair in ws.windows(2) {
            let max_prev = *pair[0].points.iter().max().unwrap();
            let min_next = *pair[1].points.iter().min().unwrap();
            assert!(max_prev <= min_next, "order violated: {ws:?}");
        }
        // The ordered assignment must use p3 (index 2) for q2.
        assert_eq!(ws[1].points, vec![2]);
    }

    #[test]
    fn order_witness_none_when_no_ordered_match() {
        let pts = vec![tp(1.0, &[2]), tp(2.0, &[1])];
        let query = Query::new(vec![qp(0.0, &[1]), qp(0.0, &[2])]).unwrap();
        assert!(min_order_match_witness(&query, &pts).is_none());
        assert!(min_match_witness(&query, &pts).is_some());
    }

    #[test]
    fn empty_inputs_yield_none() {
        let query = Query::new(vec![qp(0.0, &[1])]).unwrap();
        assert!(min_match_witness(&query, &[]).is_none());
        assert!(min_order_match_witness(&query, &[]).is_none());
    }
}
