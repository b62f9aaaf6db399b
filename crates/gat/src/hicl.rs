//! HICL — the Hierarchical Inverted Cell List (§IV).
//!
//! Per grid level, the HICL records which activities each occupied
//! cell contains: the paper's per-activity inverted cell lists, stored
//! cell-major. Each level is one `Level` — the occupied cells' Morton
//! codes in ascending order, with offsets into one activity column.
//!
//! Nothing about it is stored on its own. The leaf level `d` is exactly
//! the (cell, activity) keys of the [`Itl`], and level `l − 1` merges
//! the runs of each group of four siblings, which sit next to each
//! other in Morton order — the paper's bottom-up aggregation.
//! [`Hicl::derive`] does this once, at build and at snapshot load.
//!
//! Both questions the search asks are binary searches:
//! [`Hicl::children_with_any`] (the descent step) finds the contiguous
//! child range `4c..4c+3`, and [`Hicl::cell_activities`] (the
//! Algorithm-2 "virtual points") finds one cell.

use crate::itl::Itl;
use atsq_grid::CellId;
use atsq_types::{ActivityId, ActivitySet};

/// One grid level of inverted cell lists: the occupied cells' Morton
/// codes, ascending, each with its sorted, non-empty activity run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Level {
    pub(crate) cells: Vec<u64>,
    /// `cells[i]` holds `acts[offsets[i]..offsets[i + 1]]`.
    pub(crate) offsets: Vec<usize>,
    pub(crate) acts: Vec<ActivityId>,
}

impl Level {
    /// A level from distinct `(cell code, activity)` pairs in ascending
    /// order.
    pub(crate) fn from_pairs(pairs: &[(u64, ActivityId)]) -> Self {
        let offsets = run_offsets(pairs.len(), |i| pairs[i - 1].0 == pairs[i].0);
        Level {
            cells: offsets[..offsets.len() - 1]
                .iter()
                .map(|&i| pairs[i].0)
                .collect(),
            offsets,
            acts: pairs.iter().map(|&(_, a)| a).collect(),
        }
    }

    /// The activities of the `i`-th occupied cell.
    fn run(&self, i: usize) -> &[ActivityId] {
        &self.acts[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The activities of the cell with Morton code `code`; `None` when
    /// the cell is empty.
    fn activities(&self, code: u64) -> Option<&[ActivityId]> {
        self.cells.binary_search(&code).ok().map(|i| self.run(i))
    }

    /// The position of `(code, act)` in the activity column — the key
    /// index the ITL's trajectory offsets are aligned to.
    pub(crate) fn key_index(&self, code: u64, act: ActivityId) -> Option<usize> {
        let i = self.cells.binary_search(&code).ok()?;
        let j = self.run(i).binary_search(&act).ok()?;
        Some(self.offsets[i] + j)
    }

    /// The level above: each group of four siblings (adjacent in Morton
    /// order) merged into its parent.
    fn parent(&self) -> Level {
        let mut pairs: Vec<(u64, ActivityId)> = (0..self.cells.len())
            .flat_map(|i| self.run(i).iter().map(move |&a| (self.cells[i] >> 2, a)))
            .collect();
        // Parents already ascend; only each sibling group's runs need
        // merging.
        pairs.sort_unstable();
        pairs.dedup();
        Level::from_pairs(&pairs)
    }
}

/// The offsets of the runs of equal neighbours in `0..n`: `0`, every
/// `i` where `same(i)` — "element `i` equals element `i - 1`" — fails,
/// and `n`.
pub(crate) fn run_offsets(n: usize, same: impl Fn(usize) -> bool) -> Vec<usize> {
    (0..=n).filter(|&i| i == 0 || i == n || !same(i)).collect()
}

/// Hierarchical inverted cell lists for all activities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hicl {
    /// Index 0 is grid level 1, the last is the leaf level `d`.
    levels: Vec<Level>,
}

impl Hicl {
    /// Derives every level from the ITL's (cell, activity) keys.
    pub fn derive(itl: &Itl) -> Self {
        let mut levels: Vec<Level> =
            std::iter::successors(Some(itl.keys.clone()), |lv| Some(lv.parent()))
                .take(usize::from(itl.leaf_level()))
                .collect();
        levels.reverse();
        Hicl { levels }
    }

    /// Grid depth `d`.
    pub fn levels(&self) -> u8 {
        self.levels.len() as u8
    }

    /// The children of `cell` that contain at least one activity of
    /// `wanted`, in ascending code order — the descent step of the
    /// §V-A best-first retrieval ("take the union set of the cells in
    /// the inverted list").
    pub fn children_with_any<'a>(
        &'a self,
        cell: CellId,
        wanted: &'a ActivitySet,
    ) -> impl Iterator<Item = CellId> + 'a {
        assert!(cell.level < self.levels(), "leaf cells have no children");
        let level = cell.level + 1;
        let lv = &self.levels[usize::from(cell.level)];
        let first = cell.code << 2;
        let start = lv.cells.partition_point(|&c| c < first);
        (start..lv.cells.len())
            .take_while(move |&i| lv.cells[i] <= first + 3)
            .filter(move |&i| {
                let acts = lv.run(i);
                wanted.iter().any(|a| acts.binary_search(&a).is_ok())
            })
            .map(move |i| CellId {
                level,
                code: lv.cells[i],
            })
    }

    /// All activities present in `cell`, sorted — the `cj.Φ` of
    /// Algorithm 2's virtual points. Returns `None` for cells with no
    /// activity.
    pub fn cell_activities(&self, cell: CellId) -> Option<&[ActivityId]> {
        assert!(cell.level >= 1 && cell.level <= self.levels());
        self.levels[usize::from(cell.level - 1)].activities(cell.code)
    }

    /// Approximate heap footprint in bytes of the inverted lists at
    /// levels `1..=upto` (8 bytes per (cell, activity) posting),
    /// matching the paper's memory accounting for Fig. 8.
    pub fn memory_bytes(&self, upto: u8) -> usize {
        let upto = usize::from(upto).min(self.levels.len());
        self.levels[..upto].iter().map(|lv| lv.acts.len() * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_grid::{morton_encode, Grid};
    use atsq_types::{Point, Rect, TrajectoryId};

    fn leaf(level: u8, x: u32, y: u32) -> CellId {
        CellId {
            level,
            code: morton_encode(x, y),
        }
    }

    /// The HICL over `(activity, leaf cell)` occurrences.
    fn build(levels: u8, occurrences: Vec<(ActivityId, CellId)>) -> Hicl {
        let itl = Itl::build(
            levels,
            occurrences
                .into_iter()
                .map(|(a, c)| (c, a, TrajectoryId(0))),
        );
        Hicl::derive(&itl)
    }

    fn contains(h: &Hicl, cell: CellId, act: ActivityId) -> bool {
        h.cell_activities(cell)
            .is_some_and(|acts| acts.contains(&act))
    }

    fn acts_of(h: &Hicl, cell: CellId) -> Option<Vec<u32>> {
        h.cell_activities(cell)
            .map(|acts| acts.iter().map(|a| a.0).collect())
    }

    #[test]
    fn build_propagates_to_ancestors() {
        // Grid d=3 (8x8). Activity 1 occurs in leaf (5, 2).
        let h = build(3, vec![(ActivityId(1), leaf(3, 5, 2))]);
        assert_eq!(h.levels(), 3);
        assert!(contains(&h, leaf(3, 5, 2), ActivityId(1)));
        assert!(contains(&h, leaf(2, 2, 1), ActivityId(1))); // parent
        assert!(contains(&h, leaf(1, 1, 0), ActivityId(1))); // grandparent
        assert!(!contains(&h, leaf(3, 5, 3), ActivityId(1)));
        assert!(!contains(&h, leaf(1, 0, 0), ActivityId(1)));
    }

    #[test]
    fn children_with_any_filters() {
        let h = build(
            2,
            vec![
                (ActivityId(1), leaf(2, 0, 0)),
                (ActivityId(2), leaf(2, 3, 3)),
            ],
        );
        let wanted = ActivitySet::from_raw([1]);
        let root_children: Vec<CellId> = h.children_with_any(leaf(1, 0, 0), &wanted).collect();
        assert_eq!(root_children, vec![leaf(2, 0, 0)]);
        let wanted = ActivitySet::from_raw([2]);
        assert_eq!(h.children_with_any(leaf(1, 0, 0), &wanted).count(), 0);
        // From the root: both occupied level-1 cells, ascending.
        let wanted = ActivitySet::from_raw([1, 2]);
        let seeds: Vec<CellId> = h.children_with_any(CellId::ROOT, &wanted).collect();
        assert_eq!(seeds, vec![leaf(1, 0, 0), leaf(1, 1, 1)]);
    }

    #[test]
    fn cell_activities_reverse_lookup() {
        let h = build(
            2,
            vec![
                (ActivityId(1), leaf(2, 0, 0)),
                (ActivityId(2), leaf(2, 0, 0)),
                (ActivityId(3), leaf(2, 3, 0)),
            ],
        );
        assert_eq!(acts_of(&h, leaf(2, 0, 0)), Some(vec![1, 2]));
        // Level-1 parent of both (0,0) and (3,0) quadrant cells.
        assert_eq!(acts_of(&h, leaf(1, 0, 0)), Some(vec![1, 2]));
        assert_eq!(acts_of(&h, leaf(1, 1, 0)), Some(vec![3]));
        assert_eq!(acts_of(&h, leaf(2, 1, 1)), None);
    }

    #[test]
    fn duplicates_are_deduped() {
        let occ = vec![
            (ActivityId(1), leaf(2, 1, 1)),
            (ActivityId(1), leaf(2, 1, 1)),
            (ActivityId(1), leaf(2, 1, 1)),
        ];
        let h = build(2, occ);
        assert_eq!(acts_of(&h, leaf(2, 1, 1)), Some(vec![1]));
        assert_eq!(acts_of(&h, leaf(1, 0, 0)), Some(vec![1]));
        assert_eq!(h.memory_bytes(2), 16);
    }

    #[test]
    fn memory_accounting_counts_postings() {
        let h = build(
            2,
            vec![
                (ActivityId(1), leaf(2, 0, 0)),
                (ActivityId(1), leaf(2, 3, 3)),
            ],
        );
        // Level 1: cells (0,0) and (1,1) -> 2 postings; level 2: 2.
        assert_eq!(h.memory_bytes(1), 16);
        assert_eq!(h.memory_bytes(2), 32);
        // Clamps beyond depth.
        assert_eq!(h.memory_bytes(10), 32);
    }

    /// The snapshot stores only the ITL: the HICL derived from a
    /// decoded ITL is the HICL derived at build time.
    #[test]
    fn encode_decode_roundtrip() {
        let itl = Itl::build(
            3,
            vec![
                (leaf(3, 5, 2), ActivityId(1), TrajectoryId(0)),
                (leaf(3, 0, 0), ActivityId(1), TrajectoryId(1)),
                (leaf(3, 7, 7), ActivityId(7), TrajectoryId(1)),
                (leaf(3, 1, 0), ActivityId(7), TrajectoryId(2)),
            ],
        );
        let mut buf = Vec::new();
        itl.encode(&mut buf);
        let decoded = Itl::decode(&buf, &mut 0).unwrap();
        let (h, q) = (Hicl::derive(&itl), Hicl::derive(&decoded));
        assert_eq!(h, q);
        assert_eq!(q.levels(), 3);
        // Siblings (0,0) and (1,0) merge into one level-2 cell.
        assert_eq!(acts_of(&q, leaf(2, 0, 0)), Some(vec![1, 7]));
        assert_eq!(acts_of(&q, leaf(1, 0, 0)), Some(vec![1, 7]));
        assert_eq!(acts_of(&q, leaf(1, 1, 1)), Some(vec![7]));
    }

    #[test]
    fn consistent_with_grid_mapping() {
        // End-to-end: map real points through a Grid and check
        // containment against the grid's own cell_of.
        let grid = Grid::new(Rect::from_bounds(0.0, 0.0, 16.0, 16.0), 4);
        let pts = [
            (Point::new(1.0, 1.0), ActivityId(7)),
            (Point::new(15.0, 15.0), ActivityId(7)),
            (Point::new(8.0, 4.0), ActivityId(9)),
        ];
        let h = build(
            4,
            pts.iter()
                .map(|(p, a)| (*a, grid.leaf_cell_of(p)))
                .collect(),
        );
        for (p, a) in &pts {
            for level in 1..=4u8 {
                assert!(contains(&h, grid.cell_of(p, level), *a));
            }
        }
        assert!(!contains(
            &h,
            grid.cell_of(&Point::new(1.0, 1.0), 4),
            ActivityId(9)
        ));
    }
}
