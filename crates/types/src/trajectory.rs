//! Activity trajectories (Definition 2 of the paper).

use crate::activity::ActivitySet;
use crate::geo::{Point, Rect};
use std::fmt;

/// Dense identifier of a trajectory within a [`crate::Dataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrajectoryId(pub u32);

impl TrajectoryId {
    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TrajectoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tr{}", self.0)
    }
}

/// One point of an activity trajectory: a geo-location plus the
/// (possibly empty) set of activities performed there.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrajectoryPoint {
    /// Planar location in kilometres.
    pub loc: Point,
    /// Activities performed at this location (`p.Φ` in the paper).
    pub activities: ActivitySet,
}

impl TrajectoryPoint {
    /// Creates a point with the given location and activities.
    pub fn new(loc: Point, activities: ActivitySet) -> Self {
        TrajectoryPoint { loc, activities }
    }
}

/// An activity trajectory `Tr = (p1, …, pn)`: the chronological check-in
/// history of one user (Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Identifier within the owning dataset.
    pub id: TrajectoryId,
    /// The points, in chronological order.
    pub points: Vec<TrajectoryPoint>,
}

impl Trajectory {
    /// Creates a trajectory from its points.
    pub fn new(id: TrajectoryId, points: Vec<TrajectoryPoint>) -> Self {
        Trajectory { id, points }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trajectory has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The union of all activities over all points of the trajectory —
    /// the raw material for the TAS sketch and the IL baseline.
    pub fn all_activities(&self) -> ActivitySet {
        let mut out = ActivitySet::new();
        for p in &self.points {
            out.extend_from(&p.activities);
        }
        out
    }

    /// Minimum bounding rectangle of all points (empty rect if no points).
    pub fn mbr(&self) -> Rect {
        let mut r = Rect::empty();
        for p in &self.points {
            r.extend_point(&p.loc);
        }
        r
    }

    /// The sub-trajectory `Tr[i, j]` (inclusive, 0-based) as a slice of
    /// points. Panics when the range is out of bounds, mirroring slice
    /// indexing semantics.
    pub fn sub(&self, i: usize, j: usize) -> &[TrajectoryPoint] {
        &self.points[i..=j]
    }

    /// Sum of consecutive point-to-point distances (the travelled length).
    pub fn path_length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].loc.dist(&w[1].loc))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj() -> Trajectory {
        Trajectory::new(
            TrajectoryId(7),
            vec![
                TrajectoryPoint::new(Point::new(0.0, 0.0), ActivitySet::from_raw([0, 1])),
                TrajectoryPoint::new(Point::new(3.0, 4.0), ActivitySet::from_raw([2])),
                TrajectoryPoint::new(Point::new(3.0, 0.0), ActivitySet::from_raw([1, 3])),
            ],
        )
    }

    #[test]
    fn all_activities_unions_points() {
        let t = traj();
        assert_eq!(t.all_activities(), ActivitySet::from_raw([0, 1, 2, 3]));
    }

    #[test]
    fn mbr_covers_all_points() {
        let t = traj();
        let mbr = t.mbr();
        assert_eq!(mbr, Rect::from_bounds(0.0, 0.0, 3.0, 4.0));
        for p in &t.points {
            assert!(mbr.contains_point(&p.loc));
        }
        assert!(Trajectory::new(TrajectoryId(0), vec![]).mbr().is_empty());
    }

    #[test]
    fn sub_trajectory_is_inclusive() {
        let t = traj();
        let s = t.sub(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].loc, Point::new(3.0, 4.0));
    }

    #[test]
    fn path_length_sums_segments() {
        let t = traj();
        assert!((t.path_length() - (5.0 + 4.0)).abs() < 1e-12);
        assert_eq!(Trajectory::new(TrajectoryId(0), vec![]).path_length(), 0.0);
    }
}
