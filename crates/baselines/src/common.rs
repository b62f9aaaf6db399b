//! The venue table shared by the spatial baselines.

use atsq_types::{ActivitySet, Dataset, Rect, TrajectoryId};

/// One indexed venue: a trajectory point flattened for the spatial
/// baselines. The R-tree ignores the activity set; the IR-tree builds
/// its per-node inverted files from it.
#[derive(Debug, Clone)]
pub struct Venue {
    /// Owning trajectory.
    pub trajectory: TrajectoryId,
    /// Index of the point within the trajectory.
    pub point_idx: u32,
    /// Activities at the venue.
    pub activities: ActivitySet,
}

impl atsq_irtree::HasActivities for Venue {
    fn activities(&self) -> &ActivitySet {
        &self.activities
    }
}

/// Flattens a dataset into venues with point rectangles.
pub fn venues(dataset: &Dataset) -> Vec<(Rect, Venue)> {
    let mut out = Vec::new();
    for tr in dataset.trajectories() {
        for (i, p) in tr.points.iter().enumerate() {
            out.push((
                Rect::from_point(p.loc),
                Venue {
                    trajectory: tr.id,
                    point_idx: i as u32,
                    activities: p.activities.clone(),
                },
            ));
        }
    }
    out
}
