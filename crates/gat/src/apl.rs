//! APL — the Activity Posting List (§IV).
//!
//! For each trajectory and each activity it contains, the APL lists the
//! indexes of the trajectory points carrying the activity. The paper
//! stores this on disk "due to its high space requirement" and fetches
//! it only when a candidate's distance must be evaluated; callers of
//! [`TrajectoryPostings::postings`] are expected to charge an
//! [`crate::stats::IoStats::record_apl_read`] per access.

use atsq_types::{ActivityId, ActivitySet, Trajectory};
use std::collections::HashMap;

/// Posting lists of one trajectory: activity → ascending point indexes.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryPostings {
    lists: HashMap<ActivityId, Vec<u32>>,
}

impl TrajectoryPostings {
    /// Builds the posting lists from a trajectory's points.
    pub fn build(tr: &Trajectory) -> Self {
        let mut lists: HashMap<ActivityId, Vec<u32>> = HashMap::new();
        for (idx, p) in tr.points.iter().enumerate() {
            for a in p.activities.iter() {
                lists.entry(a).or_default().push(idx as u32);
            }
        }
        TrajectoryPostings { lists }
    }

    /// Point indexes carrying `act` (ascending), empty when absent.
    pub fn postings(&self, act: ActivityId) -> &[u32] {
        self.lists.get(&act).map_or(&[][..], Vec::as_slice)
    }

    /// Whether the trajectory contains every activity of `wanted` —
    /// the exact validation that removes TAS false positives (§V-C).
    pub fn contains_all(&self, wanted: &ActivitySet) -> bool {
        wanted.iter().all(|a| self.lists.contains_key(&a))
    }

    /// Deduplicated union of the postings of all activities in
    /// `wanted` — the candidate point set `CP` of Algorithm 3, line 1.
    pub fn candidate_indexes(&self, wanted: &ActivitySet) -> Vec<u32> {
        let mut out = Vec::new();
        self.candidate_indexes_into(wanted, &mut out);
        out
    }

    /// [`TrajectoryPostings::candidate_indexes`] into a caller-owned
    /// buffer — the hot search loop reuses one buffer per query
    /// instead of allocating per candidate evaluation.
    pub fn candidate_indexes_into(&self, wanted: &ActivitySet, out: &mut Vec<u32>) {
        out.clear();
        for a in wanted.iter() {
            out.extend_from_slice(self.postings(a));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Number of posting entries (memory accounting).
    pub fn posting_count(&self) -> usize {
        self.lists.values().map(Vec::len).sum()
    }

    /// The largest point index any posting references, `None` when the
    /// lists are empty (lists are ascending, so only last elements are
    /// inspected). The snapshot loader uses it to reject decoded
    /// postings pointing outside their trajectory.
    pub fn max_position(&self) -> Option<u32> {
        self.lists
            .values()
            .filter_map(|list| list.last())
            .copied()
            .max()
    }

    /// Serializes the posting lists as one record of [`Apl::encode`]:
    /// `[n_lists][per list: activity id, delta-coded indexes]`, lists
    /// ascending by activity id so the encoding is deterministic.
    pub fn to_bytes(&self) -> Vec<u8> {
        use atsq_storage::codec::{put_ascending, put_varint};
        let mut acts: Vec<ActivityId> = self.lists.keys().copied().collect();
        acts.sort_unstable();
        // Rough capacity: 1 byte/posting after delta coding + headers.
        let mut out = Vec::with_capacity(8 + self.posting_count() * 2);
        put_varint(&mut out, acts.len() as u32);
        for a in acts {
            put_varint(&mut out, a.0);
            put_ascending(&mut out, &self.lists[&a]);
        }
        out
    }

    /// Decodes [`TrajectoryPostings::to_bytes`] output. `None` on any
    /// truncation or inconsistency — the snapshot loader then rejects
    /// the snapshot rather than serving partial postings.
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        use atsq_storage::codec::{get_ascending, get_varint};
        let mut pos = 0;
        let n = get_varint(buf, &mut pos)? as usize;
        let mut lists = HashMap::with_capacity(n);
        for _ in 0..n {
            let act = ActivityId(get_varint(buf, &mut pos)?);
            let indexes = get_ascending(buf, &mut pos)?;
            lists.insert(act, indexes);
        }
        if pos != buf.len() {
            return None; // trailing garbage
        }
        Some(TrajectoryPostings { lists })
    }
}

/// The APL table: posting lists for every trajectory, by index.
#[derive(Debug, Clone, Default)]
pub struct Apl {
    per_trajectory: Vec<TrajectoryPostings>,
}

impl Apl {
    /// Builds posting lists for every trajectory.
    pub fn build<'a>(trajectories: impl IntoIterator<Item = &'a Trajectory>) -> Self {
        Apl {
            per_trajectory: trajectories
                .into_iter()
                .map(TrajectoryPostings::build)
                .collect(),
        }
    }

    /// The posting lists of trajectory `idx`.
    pub fn trajectory(&self, idx: usize) -> &TrajectoryPostings {
        &self.per_trajectory[idx]
    }

    /// Number of trajectories covered.
    pub fn len(&self) -> usize {
        self.per_trajectory.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.per_trajectory.is_empty()
    }

    /// Serializes the table: one length-prefixed
    /// [`TrajectoryPostings::to_bytes`] record per trajectory, in
    /// index order.
    pub fn encode(&self, out: &mut Vec<u8>) {
        use atsq_storage::codec::put_varint;
        put_varint(out, self.per_trajectory.len() as u32);
        for t in &self.per_trajectory {
            let bytes = t.to_bytes();
            put_varint(out, bytes.len() as u32);
            out.extend_from_slice(&bytes);
        }
    }

    /// Decodes [`Apl::encode`] output from `buf[*pos..]`, advancing
    /// `pos`. `None` on truncation or a record that fails to decode.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        use atsq_storage::codec::get_varint;
        let n = get_varint(buf, pos)? as usize;
        if n > buf.len().saturating_sub(*pos) {
            return None; // each record costs at least one byte
        }
        let mut per_trajectory = Vec::with_capacity(n);
        for _ in 0..n {
            let len = get_varint(buf, pos)? as usize;
            let end = pos.checked_add(len)?;
            if end > buf.len() {
                return None;
            }
            per_trajectory.push(TrajectoryPostings::from_bytes(&buf[*pos..end])?);
            *pos = end;
        }
        Some(Apl { per_trajectory })
    }

    /// Simulated on-disk footprint: 4 bytes per posting plus 8 per
    /// (trajectory, activity) list header.
    pub fn disk_bytes(&self) -> usize {
        self.per_trajectory
            .iter()
            .map(|t| t.posting_count() * 4 + t.lists.len() * 8)
            .sum()
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
        let t = tr(vec![(0.0, &[1, 2]), (1.0, &[2]), (2.0, &[1])]);
        let p = TrajectoryPostings::build(&t);
        assert_eq!(p.postings(ActivityId(1)), &[0, 2]);
        assert_eq!(p.postings(ActivityId(2)), &[0, 1]);
        assert!(p.postings(ActivityId(3)).is_empty());
        assert_eq!(p.posting_count(), 4);
    }

    #[test]
    fn contains_all_is_exact() {
        let t = tr(vec![(0.0, &[1]), (1.0, &[2])]);
        let p = TrajectoryPostings::build(&t);
        assert!(p.contains_all(&ActivitySet::from_raw([1, 2])));
        assert!(!p.contains_all(&ActivitySet::from_raw([1, 3])));
        assert!(p.contains_all(&ActivitySet::new()));
    }

    #[test]
    fn candidate_indexes_union_dedup() {
        let t = tr(vec![(0.0, &[1, 2]), (1.0, &[2]), (2.0, &[3])]);
        let p = TrajectoryPostings::build(&t);
        assert_eq!(
            p.candidate_indexes(&ActivitySet::from_raw([1, 2])),
            vec![0, 1]
        );
        assert_eq!(
            p.candidate_indexes(&ActivitySet::from_raw([1, 2, 3])),
            vec![0, 1, 2]
        );
        assert!(p.candidate_indexes(&ActivitySet::from_raw([9])).is_empty());
    }

    #[test]
    fn postings_bytes_roundtrip() {
        let t = tr(vec![(0.0, &[1, 2]), (1.0, &[2]), (2.0, &[1, 7])]);
        let p = TrajectoryPostings::build(&t);
        let bytes = p.to_bytes();
        let q = TrajectoryPostings::from_bytes(&bytes).unwrap();
        for a in [1u32, 2, 7, 9] {
            assert_eq!(p.postings(ActivityId(a)), q.postings(ActivityId(a)));
        }
        assert_eq!(q.posting_count(), p.posting_count());
    }

    #[test]
    fn postings_bytes_are_deterministic() {
        let t = tr(vec![(0.0, &[5, 3, 1]), (1.0, &[3])]);
        let a = TrajectoryPostings::build(&t).to_bytes();
        let b = TrajectoryPostings::build(&t).to_bytes();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_postings_roundtrip() {
        let p = TrajectoryPostings::default();
        let q = TrajectoryPostings::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(q.posting_count(), 0);
    }

    #[test]
    fn from_bytes_rejects_truncation_and_garbage() {
        let t = tr(vec![(0.0, &[1, 2]), (1.0, &[2])]);
        let bytes = TrajectoryPostings::build(&t).to_bytes();
        assert!(TrajectoryPostings::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(TrajectoryPostings::from_bytes(&extra).is_none());
    }

    #[test]
    fn apl_encode_decode_roundtrip() {
        let t0 = tr(vec![(0.0, &[1, 2]), (1.0, &[2])]);
        let t1 = tr(vec![(0.0, &[7])]);
        let t2 = tr(vec![]);
        let apl = Apl::build([&t0, &t1, &t2]);
        let mut buf = Vec::new();
        apl.encode(&mut buf);
        let mut pos = 0;
        let q = Apl::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(q.len(), 3);
        for idx in 0..3 {
            for a in [1u32, 2, 7, 9] {
                assert_eq!(
                    apl.trajectory(idx).postings(ActivityId(a)),
                    q.trajectory(idx).postings(ActivityId(a)),
                    "trajectory {idx} activity {a}"
                );
            }
        }
        // Truncation fails cleanly at every prefix.
        for cut in 0..buf.len() {
            assert!(Apl::decode(&buf[..cut], &mut 0).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn apl_table_indexes_by_trajectory() {
        let t0 = tr(vec![(0.0, &[1])]);
        let t1 = tr(vec![(0.0, &[2])]);
        let apl = Apl::build([&t0, &t1]);
        assert_eq!(apl.len(), 2);
        assert!(apl.trajectory(0).contains_all(&ActivitySet::from_raw([1])));
        assert!(apl.trajectory(1).contains_all(&ActivitySet::from_raw([2])));
        assert!(apl.disk_bytes() > 0);
    }
}
