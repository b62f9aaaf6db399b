//! Shared candidate-evaluation helpers for the baseline engines.

use atsq_matching::min_match_distance;
use atsq_matching::order_match::{min_order_match_distance, order_feasible};
use atsq_types::{Dataset, Query, TrajectoryId};

/// Evaluates `Dmm(Q, Tr)` for a candidate; `None` when the trajectory
/// is not a match.
pub fn evaluate_atsq(dataset: &Dataset, query: &Query, tr: TrajectoryId) -> Option<f64> {
    min_match_distance(query, &dataset.trajectory(tr).points)
}

/// Evaluates `Dmom(Q, Tr)` with the MIB pre-filter and the caller's
/// current `k`-th best as the Algorithm-4 early-exit threshold.
pub fn evaluate_oatsq(dataset: &Dataset, query: &Query, tr: TrajectoryId, dk: f64) -> Option<f64> {
    let points = &dataset.trajectory(tr).points;
    if !order_feasible(query, points) {
        return None;
    }
    min_order_match_distance(query, points, dk)
}

/// Bounded top-k accumulator shared by the baseline search loops.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    entries: Vec<(f64, TrajectoryId)>,
}

impl TopK {
    /// An empty accumulator for `k` results. `k` comes off the command
    /// line, so nothing is reserved for it up front.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            entries: Vec::new(),
        }
    }

    /// Offers one scored trajectory.
    pub fn offer(&mut self, dist: f64, tr: TrajectoryId) {
        let pos = self
            .entries
            .partition_point(|&(d, t)| d < dist || (d == dist && t < tr));
        self.entries.insert(pos, (dist, tr));
        if self.entries.len() > self.k {
            self.entries.pop();
        }
    }

    /// Current `k`-th smallest distance (`∞` until k results exist).
    pub fn kth(&self) -> f64 {
        if self.entries.len() == self.k {
            self.entries.last().map_or(f64::INFINITY, |&(d, _)| d)
        } else {
            f64::INFINITY
        }
    }

    /// The accumulated results, ascending.
    pub fn into_results(self) -> Vec<atsq_types::QueryResult> {
        self.entries
            .into_iter()
            .map(|(d, tr)| atsq_types::QueryResult::new(tr, d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_k_smallest_in_order() {
        let mut t = TopK::new(2);
        assert_eq!(t.kth(), f64::INFINITY);
        t.offer(5.0, TrajectoryId(1));
        assert_eq!(t.kth(), f64::INFINITY); // only one entry so far
        t.offer(3.0, TrajectoryId(2));
        assert_eq!(t.kth(), 5.0);
        t.offer(4.0, TrajectoryId(3));
        assert_eq!(t.kth(), 4.0);
        let res = t.into_results();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].trajectory, TrajectoryId(2));
        assert_eq!(res[1].trajectory, TrajectoryId(3));
    }

    #[test]
    fn topk_tie_breaks_by_id() {
        let mut t = TopK::new(2);
        t.offer(1.0, TrajectoryId(9));
        t.offer(1.0, TrajectoryId(3));
        t.offer(1.0, TrajectoryId(5));
        let res = t.into_results();
        assert_eq!(res[0].trajectory, TrajectoryId(3));
        assert_eq!(res[1].trajectory, TrajectoryId(5));
    }
}

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
    pub activities: atsq_types::ActivitySet,
}

impl atsq_irtree::HasActivities for Venue {
    fn activities(&self) -> &atsq_types::ActivitySet {
        &self.activities
    }
}

/// Flattens a dataset into venues with point rectangles.
pub fn venues(dataset: &Dataset) -> Vec<(atsq_types::Rect, Venue)> {
    let mut out = Vec::new();
    for tr in dataset.trajectories() {
        for (i, p) in tr.points.iter().enumerate() {
            out.push((
                atsq_types::Rect::from_point(p.loc),
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
