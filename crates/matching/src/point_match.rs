//! Algorithm 3 — minimum point match distance `Dmpm(q, Tr)`.
//!
//! Given a query point `q` with activity set `q.Φ` and the points of a
//! candidate trajectory, the minimum point match (Definition 4) is the
//! cheapest set of trajectory points whose activity union covers `q.Φ`,
//! where the cost of a set is the *sum* of the distances of its points
//! to `q`. This module implements the paper's subset-combination scheme:
//! a table keyed by covered subsets of `q.Φ`, points processed in
//! ascending distance order with the early-termination test of line 5.
//!
//! Since query activity sets are tiny (the paper sweeps `|q.Φ| ∈ 1..5`)
//! we key the table by `u64` bitmasks over the *positions inside*
//! `q.Φ`, storing it densely as a `2^|q.Φ|` array; this is the same
//! recurrence as the paper's hash table `H`, with the FIFO subset
//! queue made unnecessary by dense storage. `|q.Φ|` is capped at
//! [`QueryPoint::MAX_ACTIVITIES`], which [`atsq_types::Query::new`]
//! enforces.

use atsq_types::{ActivityId, ActivitySet, Point, QueryPoint, TrajectoryPoint};

/// Maps the activities of one query point to bit positions, so that
/// subsets of `q.Φ` become machine-word bitmasks.
#[derive(Debug, Clone)]
pub struct QueryMask {
    activities: ActivitySet,
}

impl QueryMask {
    /// Builds the mask mapping for a query activity set.
    ///
    /// # Panics
    /// Panics if the set is empty or larger than
    /// [`QueryPoint::MAX_ACTIVITIES`].
    pub fn new(activities: &ActivitySet) -> Self {
        assert!(
            !activities.is_empty(),
            "query point must request at least one activity"
        );
        assert!(
            activities.len() <= QueryPoint::MAX_ACTIVITIES,
            "query activity set larger than {} not supported",
            QueryPoint::MAX_ACTIVITIES
        );
        QueryMask {
            activities: activities.clone(),
        }
    }

    /// Number of query activities (`|q.Φ|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.activities.len()
    }

    /// Always false — construction rejects empty sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The bitmask with every query activity covered.
    #[inline]
    pub fn full_mask(&self) -> u32 {
        ((1u64 << self.activities.len()) - 1) as u32
    }

    /// The coverage mask of a sorted activity slice — a trajectory
    /// point's [`ActivitySet::ids`], or a grid cell's activities: bit
    /// `i` is set iff the slice holds the `i`-th activity of `q.Φ`
    /// (the paper's `p.Φ′ = p.Φ ∩ q.Φ`).
    pub fn cover_mask(&self, point_activities: &[ActivityId]) -> u32 {
        let mut mask = 0u32;
        for (i, a) in self.activities.iter().enumerate() {
            if point_activities.binary_search(&a).is_ok() {
                mask |= 1 << i;
            }
        }
        mask
    }
}

/// A trajectory point reduced to what Algorithm 3 needs: its distance
/// to the query point and its coverage mask.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidatePoint {
    /// `d(p, q)`.
    pub dist: f64,
    /// Coverage of `q.Φ` as a [`QueryMask`] bitmask; zero-coverage
    /// points are useless and may be dropped by callers.
    pub mask: u32,
}

/// Builds the candidate point list `CP` of Algorithm 3 (line 1–2) for
/// one query point: every trajectory point that covers at least one
/// query activity, sorted ascending by distance.
pub fn candidate_points(
    q_loc: &Point,
    qmask: &QueryMask,
    points: &[TrajectoryPoint],
) -> Vec<CandidatePoint> {
    let mut cp: Vec<CandidatePoint> = points
        .iter()
        .filter_map(|p| {
            let mask = qmask.cover_mask(p.activities.ids());
            (mask != 0).then(|| CandidatePoint {
                dist: q_loc.dist(&p.loc),
                mask,
            })
        })
        .collect();
    cp.sort_by(|a, b| {
        a.dist
            .partial_cmp(&b.dist)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    cp
}

/// The dense subset table `H` of Algorithm 3: `cost[S]` is the current
/// minimum point-match distance covering exactly the query-activity
/// subset `S` (or a superset of it reached by combination).
///
/// Exposed publicly because Algorithm 4 reuses it incrementally: the
/// inner loop of the order-sensitive DP grows the window `Tr[k, j]` one
/// point at a time (`k` decreasing), which maps to one
/// [`IncrementalCover::add_point`] call per step.
#[derive(Debug, Clone)]
pub struct IncrementalCover {
    cost: Vec<f64>,
    full: u32,
}

impl IncrementalCover {
    /// An empty cover table for the given query mask.
    pub fn new(qmask: &QueryMask) -> Self {
        let full = qmask.full_mask();
        IncrementalCover {
            cost: vec![f64::INFINITY; (full as usize) + 1],
            full,
        }
    }

    /// Resets the table to the empty state without reallocating.
    pub fn clear(&mut self) {
        self.cost.fill(f64::INFINITY);
    }

    /// Folds one point into the table: for every already-coverable
    /// subset `S`, `S ∪ ks` becomes coverable at `cost[S] + d`, and
    /// `ks` itself at `d` (the update rule of Algorithm 3 lines 10–19,
    /// applied densely).
    pub fn add_point(&mut self, p: CandidatePoint) {
        let ks = p.mask as usize;
        if ks == 0 {
            return;
        }
        // Combine with every existing subset. In-place iteration is
        // sound: an entry updated this round already includes `p`'s
        // cost, and folding `p` in twice can only produce a larger
        // value, which the `min` discards.
        for s in 0..self.cost.len() {
            let c = self.cost[s];
            if c.is_finite() {
                let key = s | ks;
                if key != s {
                    let combined = c + p.dist;
                    if combined < self.cost[key] {
                        self.cost[key] = combined;
                    }
                }
            }
        }
        if p.dist < self.cost[ks] {
            self.cost[ks] = p.dist;
        }
    }

    /// Current best cost covering all query activities
    /// (`H[q.Φ]`), or `None` if the points seen so far do not cover
    /// the query.
    #[inline]
    pub fn full_cover_cost(&self) -> Option<f64> {
        let c = self.cost[self.full as usize];
        c.is_finite().then_some(c)
    }
}

/// Algorithm 3: minimum point match distance from sorted candidates.
///
/// `sorted_cp` must be ascending by `dist` (as produced by
/// [`candidate_points`]); the early-termination test of line 5 relies
/// on it. Returns `None` when no point match exists (Definition 3
/// unsatisfiable).
pub fn dmpm_from_sorted(qmask: &QueryMask, sorted_cp: &[CandidatePoint]) -> Option<f64> {
    let mut table = IncrementalCover::new(qmask);
    dmpm_from_sorted_with(&mut table, sorted_cp)
}

/// As [`dmpm_from_sorted`], reusing a caller-provided table to avoid
/// per-call allocation in hot loops. The table is cleared first.
pub fn dmpm_from_sorted_with(
    table: &mut IncrementalCover,
    sorted_cp: &[CandidatePoint],
) -> Option<f64> {
    table.clear();
    for &p in sorted_cp {
        // Line 5: if the best full cover found so far is already
        // cheaper than this (and hence every later) single point's
        // distance, no further point can improve the match.
        if let Some(best) = table.full_cover_cost() {
            if best <= p.dist {
                return Some(best);
            }
        }
        table.add_point(p);
    }
    table.full_cover_cost()
}

/// End-to-end `Dmpm(q, Tr)` from raw trajectory points: builds the
/// candidate list and runs Algorithm 3.
pub fn min_point_match_distance(
    q_loc: &Point,
    q_activities: &ActivitySet,
    points: &[TrajectoryPoint],
) -> Option<f64> {
    let qmask = QueryMask::new(q_activities);
    let cp = candidate_points(q_loc, &qmask, points);
    dmpm_from_sorted(&qmask, &cp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::ActivitySet;

    fn qmask(ids: &[u32]) -> QueryMask {
        QueryMask::new(&ActivitySet::from_raw(ids.iter().copied()))
    }

    fn cp(dist: f64, mask: u32) -> CandidatePoint {
        CandidatePoint { dist, mask }
    }

    /// The worked example of the paper's Table II: query activities
    /// {a,b,c,d}, seven candidate points in ascending distance order.
    /// The algorithm must report 30 and stop before processing p7.
    #[test]
    fn paper_table_ii() {
        let qm = qmask(&[0, 1, 2, 3]); // a=bit0, b=bit1, c=bit2, d=bit3
        let points = vec![
            cp(10.0, 0b0001), // p1 {a}
            cp(11.0, 0b0110), // p2 {b,c}
            cp(13.0, 0b0011), // p3 {a,b}
            cp(15.0, 0b1000), // p4 {d}
            cp(17.0, 0b1100), // p5 {c,d}
            cp(26.0, 0b0111), // p6 {a,b,c}
            cp(31.0, 0b1111), // p7 {a,b,c,d}
        ];
        // Intermediate checks following the table rows.
        let mut t = IncrementalCover::new(&qm);
        for p in &points[..4] {
            t.add_point(*p);
        }
        // After p4: Dmpm = 36 ({a}:10 + {b,c}:11 + {d}:15).
        assert_eq!(t.full_cover_cost(), Some(36.0));
        t.add_point(points[4]);
        // After p5: {a,b}:13? No — {a}:10 ∪ {b,c}:11 ∪ ... best is
        // {a,b}=13 + {c,d}=17 = 30.
        assert_eq!(t.full_cover_cost(), Some(30.0));

        // Full algorithm: early termination fires at p7 (31 > 30).
        assert_eq!(dmpm_from_sorted(&qm, &points), Some(30.0));
    }

    #[test]
    fn single_activity_takes_nearest_covering_point() {
        let qm = qmask(&[5]);
        let points = vec![cp(4.0, 1), cp(9.0, 1)];
        assert_eq!(dmpm_from_sorted(&qm, &points), Some(4.0));
    }

    #[test]
    fn no_cover_returns_none() {
        let qm = qmask(&[0, 1]);
        // Only activity bit 0 ever appears.
        let points = vec![cp(1.0, 0b01), cp(2.0, 0b01)];
        assert_eq!(dmpm_from_sorted(&qm, &points), None);
        assert_eq!(dmpm_from_sorted(&qm, &[]), None);
    }

    #[test]
    fn one_point_covering_all_beats_combination() {
        let qm = qmask(&[0, 1]);
        let points = vec![cp(3.0, 0b01), cp(4.0, 0b10), cp(5.0, 0b11)];
        // {p1,p2} costs 7, single p3 costs 5.
        assert_eq!(dmpm_from_sorted(&qm, &points), Some(5.0));
    }

    #[test]
    fn early_termination_does_not_skip_better_combination() {
        let qm = qmask(&[0, 1]);
        // First full cover appears at cost 10 (single point), then a
        // cheaper combination is NOT possible afterwards because all
        // later points are farther. Termination triggers at p with
        // dist 11 and returns 10.
        let points = vec![cp(10.0, 0b11), cp(11.0, 0b01), cp(12.0, 0b10)];
        assert_eq!(dmpm_from_sorted(&qm, &points), Some(10.0));
    }

    #[test]
    fn cover_mask_maps_positions() {
        let acts = ActivitySet::from_raw([10, 20, 30]);
        let qm = QueryMask::new(&acts);
        assert_eq!(qm.cover_mask(ActivitySet::from_raw([20]).ids()), 0b010);
        assert_eq!(qm.cover_mask(ActivitySet::from_raw([10, 30]).ids()), 0b101);
        assert_eq!(qm.cover_mask(ActivitySet::from_raw([99]).ids()), 0);
        assert_eq!(qm.full_mask(), 0b111);
        assert_eq!(qm.len(), 3);
    }

    #[test]
    fn candidate_points_filters_and_sorts() {
        use atsq_types::{Point, TrajectoryPoint};
        let qm = qmask(&[1, 2]);
        let pts = vec![
            TrajectoryPoint::new(Point::new(5.0, 0.0), ActivitySet::from_raw([1])),
            TrajectoryPoint::new(Point::new(1.0, 0.0), ActivitySet::from_raw([2])),
            TrajectoryPoint::new(Point::new(0.5, 0.0), ActivitySet::from_raw([7])),
        ];
        let cp = candidate_points(&Point::new(0.0, 0.0), &qm, &pts);
        assert_eq!(cp.len(), 2);
        assert_eq!(cp[0].dist, 1.0);
        assert_eq!(cp[0].mask, 0b10);
        assert_eq!(cp[1].dist, 5.0);
    }

    #[test]
    fn min_point_match_distance_end_to_end() {
        use atsq_types::{Point, TrajectoryPoint};
        let q = Point::new(0.0, 0.0);
        let qa = ActivitySet::from_raw([1, 2]);
        let pts = vec![
            TrajectoryPoint::new(Point::new(3.0, 0.0), ActivitySet::from_raw([1])),
            TrajectoryPoint::new(Point::new(0.0, 4.0), ActivitySet::from_raw([2])),
        ];
        assert_eq!(min_point_match_distance(&q, &qa, &pts), Some(7.0));
        let nocover = vec![TrajectoryPoint::new(
            Point::new(1.0, 0.0),
            ActivitySet::from_raw([1]),
        )];
        assert_eq!(min_point_match_distance(&q, &qa, &nocover), None);
    }

    #[test]
    fn incremental_cover_matches_batch() {
        let qm = qmask(&[0, 1, 2]);
        let points = vec![
            cp(2.0, 0b001),
            cp(3.0, 0b010),
            cp(4.0, 0b100),
            cp(5.0, 0b111),
        ];
        let batch = dmpm_from_sorted(&qm, &points);
        let mut inc = IncrementalCover::new(&qm);
        // Add in reverse order (as Algorithm 4's window growth does).
        for p in points.iter().rev() {
            inc.add_point(*p);
        }
        assert_eq!(inc.full_cover_cost(), batch);
        assert_eq!(batch, Some(5.0));
    }

    #[test]
    fn clear_resets_table() {
        let qm = qmask(&[0]);
        let mut t = IncrementalCover::new(&qm);
        t.add_point(cp(1.0, 1));
        assert_eq!(t.full_cover_cost(), Some(1.0));
        t.clear();
        assert_eq!(t.full_cover_cost(), None);
    }

    #[test]
    #[should_panic(expected = "at least one activity")]
    fn empty_query_mask_panics() {
        let _ = QueryMask::new(&ActivitySet::new());
    }
}
