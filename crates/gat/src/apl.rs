//! APL — the Activity Posting List (§IV).
//!
//! For each trajectory and each activity it contains, the APL lists the
//! indexes of the trajectory points carrying the activity. The paper
//! stores this on disk "due to its high space requirement" and fetches
//! it only when a candidate's distance must be evaluated. Here the
//! lists are resident: four flat columns derived from the dataset in
//! one pass whenever an index is built or loaded (the snapshot does not
//! store them). Callers of [`Apl::trajectory`] still charge an
//! [`crate::stats::IoStats::record_apl_read`] per access, counting the
//! fetch the paper would make.

use atsq_types::{ActivityId, ActivitySet, Trajectory};

/// The APL table: every trajectory's posting lists as flat columns.
///
/// Trajectory `t` owns the keys `trajectory_keys[t]..trajectory_keys[t + 1]`;
/// key `k` is one activity of its trajectory (ascending within the
/// trajectory) and owns the points `key_points[k]..key_points[k + 1]`
/// of the `points` column (ascending within the key).
#[derive(Debug, Clone)]
pub struct Apl {
    trajectory_keys: Vec<u32>,
    keys: Vec<ActivityId>,
    key_points: Vec<u32>,
    points: Vec<u32>,
}

impl Apl {
    /// Builds the columns in one pass over the trajectories, in order.
    pub fn build<'a>(trajectories: impl IntoIterator<Item = &'a Trajectory>) -> Self {
        let mut apl = Apl {
            trajectory_keys: vec![0],
            keys: Vec::new(),
            key_points: vec![0],
            points: Vec::new(),
        };
        // (activity, point index) pairs of one trajectory, packed as
        // `activity << 32 | index`: sorting them groups each activity's
        // points, ascending.
        let mut pairs: Vec<u64> = Vec::new();
        for tr in trajectories {
            pairs.clear();
            for (idx, p) in tr.points.iter().enumerate() {
                pairs.extend(
                    p.activities
                        .iter()
                        .map(|a| (u64::from(a.0) << 32) | idx as u64),
                );
            }
            pairs.sort_unstable();
            for run in pairs.chunk_by(|x, y| x >> 32 == y >> 32) {
                apl.keys.push(ActivityId((run[0] >> 32) as u32));
                apl.points.extend(run.iter().map(|&pair| pair as u32));
                apl.key_points
                    .push(u32::try_from(apl.points.len()).expect("under 2^32 postings"));
            }
            apl.trajectory_keys
                .push(u32::try_from(apl.keys.len()).expect("under 2^32 keys"));
        }
        apl
    }

    /// The posting lists of trajectory `idx`.
    pub fn trajectory(&self, idx: usize) -> TrajectoryPostings<'_> {
        let keys = self.trajectory_keys[idx] as usize..self.trajectory_keys[idx + 1] as usize;
        TrajectoryPostings {
            keys: &self.keys[keys.clone()],
            key_points: &self.key_points[keys.start..=keys.end],
            points: &self.points,
        }
    }

    /// Number of trajectories covered.
    pub fn len(&self) -> usize {
        self.trajectory_keys.len() - 1
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Simulated on-disk footprint: 4 bytes per posting plus 8 per
    /// (trajectory, activity) list header.
    pub fn disk_bytes(&self) -> usize {
        self.points.len() * 4 + self.keys.len() * 8
    }
}

/// Posting lists of one trajectory: activity → ascending point indexes.
/// A view into the [`Apl`] columns.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryPostings<'a> {
    /// The trajectory's activities, ascending.
    keys: &'a [ActivityId],
    /// `keys.len() + 1` offsets into `points`, one run per key.
    key_points: &'a [u32],
    points: &'a [u32],
}

impl<'a> TrajectoryPostings<'a> {
    /// The distinct activities of the trajectory, ascending.
    pub fn activities(&self) -> &'a [ActivityId] {
        self.keys
    }

    /// Point indexes carrying `act` (ascending), empty when absent.
    pub fn postings(&self, act: ActivityId) -> &'a [u32] {
        match self.keys.binary_search(&act) {
            Ok(k) => &self.points[self.key_points[k] as usize..self.key_points[k + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Whether the trajectory contains every activity of `wanted` —
    /// the exact validation that removes TAS false positives (§V-C).
    pub fn contains_all(&self, wanted: &ActivitySet) -> bool {
        // Both sides ascend: one forward walk over the keys.
        let mut keys = self.keys.iter();
        wanted.iter().all(|a| keys.find(|&&k| k >= a) == Some(&a))
    }

    /// Deduplicated union of the postings of all activities in
    /// `wanted` — the candidate point set `CP` of Algorithm 3, line 1 —
    /// written into a caller-owned buffer: the hot search loop reuses
    /// one buffer per query instead of allocating per candidate
    /// evaluation. Ascending.
    pub fn candidate_indexes_into(&self, wanted: &ActivitySet, out: &mut Vec<u32>) {
        out.clear();
        for a in wanted.iter() {
            out.extend_from_slice(self.postings(a));
        }
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::{ActivitySet, Point, TrajectoryId, TrajectoryPoint};

    fn tr(points: Vec<(f64, &[u32])>) -> Trajectory {
        Trajectory::new(
            TrajectoryId(0),
            points
                .into_iter()
                .map(|(x, acts)| {
                    TrajectoryPoint::new(
                        Point::new(x, 0.0),
                        ActivitySet::from_raw(acts.iter().copied()),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn postings_record_indexes() {
        let apl = Apl::build([&tr(vec![(0.0, &[1, 2]), (1.0, &[2]), (2.0, &[1])])]);
        let p = apl.trajectory(0);
        assert_eq!(p.postings(ActivityId(1)), &[0, 2]);
        assert_eq!(p.postings(ActivityId(2)), &[0, 1]);
        assert!(p.postings(ActivityId(3)).is_empty());
        assert_eq!(p.activities(), &[ActivityId(1), ActivityId(2)]);
        assert_eq!(apl.disk_bytes(), 4 * 4 + 2 * 8);
    }

    #[test]
    fn contains_all_is_exact() {
        let apl = Apl::build([&tr(vec![(0.0, &[1]), (1.0, &[2])])]);
        let p = apl.trajectory(0);
        assert!(p.contains_all(&ActivitySet::from_raw([1, 2])));
        assert!(!p.contains_all(&ActivitySet::from_raw([1, 3])));
        assert!(!p.contains_all(&ActivitySet::from_raw([0, 1])));
        assert!(p.contains_all(&ActivitySet::new()));
    }

    #[test]
    fn candidate_indexes_union_dedup() {
        let apl = Apl::build([&tr(vec![(0.0, &[1, 2]), (1.0, &[2]), (2.0, &[3])])]);
        let p = apl.trajectory(0);
        let mut out = vec![7];
        p.candidate_indexes_into(&ActivitySet::from_raw([1, 2]), &mut out);
        assert_eq!(out, vec![0, 1]);
        p.candidate_indexes_into(&ActivitySet::from_raw([1, 2, 3]), &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        p.candidate_indexes_into(&ActivitySet::from_raw([2, 9]), &mut out);
        assert_eq!(out, vec![0, 1]);
        p.candidate_indexes_into(&ActivitySet::from_raw([9]), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn apl_table_indexes_by_trajectory() {
        let t0 = tr(vec![(0.0, &[1])]);
        let empty = tr(vec![]);
        let bare = tr(vec![(0.0, &[])]);
        let t3 = tr(vec![(0.0, &[2])]);
        let apl = Apl::build([&t0, &empty, &bare, &t3]);
        assert_eq!(apl.len(), 4);
        assert!(apl.trajectory(0).contains_all(&ActivitySet::from_raw([1])));
        for idx in [1, 2] {
            assert!(apl.trajectory(idx).activities().is_empty());
            assert!(!apl
                .trajectory(idx)
                .contains_all(&ActivitySet::from_raw([1])));
        }
        assert_eq!(apl.trajectory(3).postings(ActivityId(2)), &[0]);
        assert!(apl.disk_bytes() > 0);
        assert!(Apl::build(std::iter::empty()).is_empty());
    }
}
