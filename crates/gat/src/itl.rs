//! ITL — the Inverted Trajectory List (§IV).
//!
//! For each leaf cell of the d-Grid and each activity occurring in it,
//! the ITL lists the trajectories that perform the activity inside the
//! cell. It answers the leaf step of candidate retrieval: once the
//! best-first descent reaches a leaf cell, the trajectories listed
//! under the query activities become candidates.
//!
//! The lists are built once and never change, so they are stored as
//! sorted flat columns: the (cell, activity) keys form one
//! `Level` — exactly the HICL's leaf level, from which
//! [`crate::hicl::Hicl::derive`] builds every coarser one — and key `k`
//! owns the run `trs[key_offsets[k]..key_offsets[k + 1]]` of one
//! trajectory column. A lookup is two binary searches; the snapshot
//! section is the columns themselves.

use crate::hicl::{run_offsets, Level};
use atsq_grid::{CellId, Grid};
use atsq_storage::codec::{get_varint_u64, put_varint_u64};
use atsq_types::{ActivityId, TrajectoryId};

/// Inverted trajectory lists for all leaf cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Itl {
    leaf_level: u8,
    /// The (cell, activity) keys, cells ascending and activities sorted
    /// within each cell.
    pub(crate) keys: Level,
    /// Key `k`'s trajectories are `trs[key_offsets[k]..key_offsets[k + 1]]`.
    key_offsets: Vec<usize>,
    /// Every key's trajectories, sorted and deduplicated within a key.
    trs: Vec<TrajectoryId>,
}

impl Itl {
    /// Builds the ITL from `(leaf cell, activity, trajectory)` triples;
    /// duplicates are tolerated.
    pub fn build(
        leaf_level: u8,
        occurrences: impl IntoIterator<Item = (CellId, ActivityId, TrajectoryId)>,
    ) -> Self {
        let mut triples: Vec<(u64, ActivityId, TrajectoryId)> = occurrences
            .into_iter()
            .map(|(cell, act, tr)| {
                assert_eq!(cell.level, leaf_level, "ITL keys are leaf cells");
                (cell.code, act, tr)
            })
            .collect();
        triples.sort_unstable();
        triples.dedup();
        let t = &triples;
        let key_offsets = run_offsets(t.len(), |i| (t[i - 1].0, t[i - 1].1) == (t[i].0, t[i].1));
        let keys: Vec<(u64, ActivityId)> = key_offsets[..key_offsets.len() - 1]
            .iter()
            .map(|&i| (t[i].0, t[i].1))
            .collect();
        Itl {
            leaf_level,
            keys: Level::from_pairs(&keys),
            key_offsets,
            trs: t.iter().map(|&(_, _, tr)| tr).collect(),
        }
    }

    /// The leaf grid level these lists are keyed by.
    pub fn leaf_level(&self) -> u8 {
        self.leaf_level
    }

    /// Trajectories containing `act` within `cell` (sorted, deduped).
    pub fn trajectories(&self, cell: CellId, act: ActivityId) -> &[TrajectoryId] {
        assert_eq!(cell.level, self.leaf_level);
        self.keys.key_index(cell.code, act).map_or(&[][..], |k| {
            &self.trs[self.key_offsets[k]..self.key_offsets[k + 1]]
        })
    }

    /// Serializes the five columns in order — cells, activity offsets,
    /// activities, trajectory offsets, trajectories — each as its
    /// length and then delta-coded runs. The columns are sorted, so
    /// the bytes are deterministic.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let wide = |offsets: &[usize]| offsets.iter().map(|&o| o as u64).collect::<Vec<u64>>();
        out.extend_from_slice(&[self.leaf_level]);
        put_column(out, &self.keys.cells, None);
        put_column(out, &wide(&self.keys.offsets), None);
        let acts: Vec<u64> = self.keys.acts.iter().map(|a| u64::from(a.0)).collect();
        put_column(out, &acts, Some(&self.keys.offsets));
        put_column(out, &wide(&self.key_offsets), None);
        let trs: Vec<u64> = self.trs.iter().map(|t| u64::from(t.0)).collect();
        put_column(out, &trs, Some(&self.key_offsets));
    }

    /// Decodes [`Itl::encode`] output from `buf[*pos..]`, advancing
    /// `pos`. `None` on truncation or any violated invariant: a leaf
    /// level outside the grid's range, cell codes not strictly
    /// ascending or not below `4^d`, activities or trajectories not
    /// strictly ascending within their run, an empty run, or offsets
    /// that do not span their column exactly. A corrupt snapshot must
    /// surface as an error, never as an index that silently answers
    /// differently.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let leaf_level = *buf.get(*pos)?;
        *pos += 1;
        if leaf_level == 0 || leaf_level > Grid::MAX_SUPPORTED_LEVEL {
            return None;
        }
        let cells = get_column(buf, pos, None)?;
        if cells.last().is_some_and(|&c| c >= 1u64 << (2 * leaf_level)) {
            return None;
        }
        let offsets = get_offsets(buf, pos, cells.len())?;
        let acts = narrow(get_column(buf, pos, Some(&offsets))?, ActivityId)?;
        let key_offsets = get_offsets(buf, pos, acts.len())?;
        let trs = narrow(get_column(buf, pos, Some(&key_offsets))?, TrajectoryId)?;
        Some(Itl {
            leaf_level,
            keys: Level {
                cells,
                offsets,
                acts,
            },
            key_offsets,
            trs,
        })
    }

    /// The largest trajectory index any posting references, `None`
    /// when the lists are empty. The snapshot loader uses it to reject
    /// decoded lists pointing outside the dataset.
    pub fn max_trajectory_index(&self) -> Option<usize> {
        self.trs.iter().max().map(|tr| tr.index())
    }

    /// Number of non-empty leaf cells.
    pub fn cell_count(&self) -> usize {
        self.keys.cells.len()
    }

    /// Approximate heap footprint: 4 bytes per trajectory posting plus
    /// 12 bytes per (cell, activity) key pair.
    pub fn memory_bytes(&self) -> usize {
        self.trs.len() * 4 + self.keys.acts.len() * 12
    }
}

/// Appends `column` as its length and then its values, run by run
/// (`column[bounds[i]..bounds[i + 1]]`, one run when `bounds` is
/// `None`): each run's first value followed by the gap to each next
/// one. It writes whatever it is given, corrupt columns included:
/// rejecting them is [`get_column`]'s job.
fn put_column(out: &mut Vec<u8>, column: &[u64], bounds: Option<&[usize]>) {
    put_varint_u64(out, column.len() as u64);
    let whole = [0, column.len()];
    for run in bounds.unwrap_or(&whole).windows(2) {
        let mut prev = 0;
        for &v in column.get(run[0]..run[1]).unwrap_or(&[]) {
            put_varint_u64(out, v.wrapping_sub(prev));
            prev = v;
        }
    }
}

/// Reads a column written by [`put_column`] with the same `bounds`.
/// `None` on truncation, when the column is not exactly as long as the
/// last bound, or when a run does not strictly ascend. `bounds` must
/// themselves be strictly ascending from 0, as [`get_offsets`] returns
/// them.
fn get_column(buf: &[u8], pos: &mut usize, bounds: Option<&[usize]>) -> Option<Vec<u64>> {
    let len = usize::try_from(get_varint_u64(buf, pos)?).ok()?;
    // A varint is at least one byte: cheap sanity bound against a
    // corrupt length causing a huge allocation.
    if len > buf.len().saturating_sub(*pos) {
        return None;
    }
    let whole = [0, len];
    let bounds = bounds.unwrap_or(&whole);
    if bounds.last() != Some(&len) {
        return None; // an offset past (or short of) its column
    }
    let mut column = (0..len)
        .map(|_| get_varint_u64(buf, pos))
        .collect::<Option<Vec<u64>>>()?;
    for run in bounds.windows(2) {
        for i in run[0] + 1..run[1] {
            if column[i] == 0 {
                return None; // a repeated value
            }
            column[i] = column[i - 1].checked_add(column[i])?;
        }
    }
    Some(column)
}

/// Reads the offsets splitting a column into `runs` non-empty runs:
/// `runs + 1` strictly ascending values starting at 0.
fn get_offsets(buf: &[u8], pos: &mut usize, runs: usize) -> Option<Vec<usize>> {
    let offsets = get_column(buf, pos, None)?
        .into_iter()
        .map(|o| usize::try_from(o).ok())
        .collect::<Option<Vec<usize>>>()?;
    (offsets.len() == runs + 1 && offsets.first() == Some(&0)).then_some(offsets)
}

/// Narrows a decoded column to 32-bit ids; `None` if any overflows.
fn narrow<T>(column: Vec<u64>, id: impl Fn(u32) -> T) -> Option<Vec<T>> {
    column
        .into_iter()
        .map(|v| u32::try_from(v).ok().map(&id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_grid::morton_encode;

    fn cell(x: u32, y: u32) -> CellId {
        CellId {
            level: 3,
            code: morton_encode(x, y),
        }
    }

    fn sample() -> Itl {
        Itl::build(
            3,
            vec![
                (cell(1, 1), ActivityId(5), TrajectoryId(10)),
                (cell(1, 1), ActivityId(5), TrajectoryId(3)),
                (cell(1, 1), ActivityId(5), TrajectoryId(10)), // dup
                (cell(1, 1), ActivityId(6), TrajectoryId(4)),
                (cell(2, 2), ActivityId(5), TrajectoryId(8)),
            ],
        )
    }

    fn roundtrip(itl: &Itl) -> Option<Itl> {
        let mut buf = Vec::new();
        itl.encode(&mut buf);
        let mut pos = 0;
        let back = Itl::decode(&buf, &mut pos)?;
        assert_eq!(pos, buf.len());
        Some(back)
    }

    #[test]
    fn build_and_lookup() {
        let itl = sample();
        assert_eq!(
            itl.trajectories(cell(1, 1), ActivityId(5)),
            &[TrajectoryId(3), TrajectoryId(10)]
        );
        assert_eq!(
            itl.trajectories(cell(2, 2), ActivityId(5)),
            &[TrajectoryId(8)]
        );
        assert!(itl.trajectories(cell(1, 1), ActivityId(9)).is_empty());
        assert!(itl.trajectories(cell(7, 7), ActivityId(5)).is_empty());
        assert_eq!(itl.cell_count(), 2);
        assert_eq!(itl.max_trajectory_index(), Some(10));
        // The columns themselves: two cells, three keys, four postings.
        assert_eq!(itl.keys.cells, vec![cell(1, 1).code, cell(2, 2).code]);
        assert_eq!(itl.keys.offsets, vec![0, 2, 3]);
        assert_eq!(itl.key_offsets, vec![0, 2, 3, 4]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let itl = sample();
        let q = roundtrip(&itl).unwrap();
        assert_eq!(q, itl);
        assert_eq!(q.leaf_level(), 3);
        for (c, a) in [
            (cell(1, 1), ActivityId(5)),
            (cell(1, 1), ActivityId(6)),
            (cell(2, 2), ActivityId(5)),
            (cell(7, 7), ActivityId(5)),
        ] {
            assert_eq!(itl.trajectories(c, a), q.trajectories(c, a));
        }
        // Deterministic bytes.
        let (mut buf, mut again) = (Vec::new(), Vec::new());
        itl.encode(&mut buf);
        itl.encode(&mut again);
        assert_eq!(buf, again);
        // Truncation fails cleanly at every prefix.
        for cut in 0..buf.len() {
            assert!(Itl::decode(&buf[..cut], &mut 0).is_none(), "cut={cut}");
        }
        // The empty ITL roundtrips too.
        let empty = Itl::build(3, vec![]);
        assert_eq!(roundtrip(&empty), Some(empty));
    }

    /// Every column invariant the search relies on is checked at
    /// decode: a violation is `None`, never a panic or an index that
    /// answers differently.
    #[test]
    fn decode_rejects_corruption() {
        let good = sample();
        assert!(roundtrip(&good).is_some());
        let bad = |edit: &dyn Fn(&mut Itl)| {
            let mut itl = good.clone();
            edit(&mut itl);
            roundtrip(&itl)
        };
        // Zero or absurd leaf levels.
        assert!(bad(&|t| t.leaf_level = 0).is_none());
        assert!(bad(&|t| t.leaf_level = 200).is_none());
        // Cell codes not ascending.
        assert!(bad(&|t| t.keys.cells.reverse()).is_none());
        assert!(bad(&|t| t.keys.cells[1] = t.keys.cells[0]).is_none());
        // Activities unsorted within a cell.
        assert!(bad(&|t| t.keys.acts.swap(0, 1)).is_none());
        // An empty trajectory list.
        assert!(bad(&|t| t.key_offsets = vec![0, 2, 2, 4]).is_none());
        // A leaf code ≥ 4^d.
        assert!(bad(&|t| t.keys.cells[1] = 64).is_none());
        // Offsets past their column.
        assert!(bad(&|t| t.keys.offsets = vec![0, 2, 4]).is_none());
        assert!(bad(&|t| t.key_offsets = vec![0, 2, 3, 9]).is_none());
        // Trajectories unsorted within a key.
        assert!(bad(&|t| t.trs.swap(0, 1)).is_none());
    }

    #[test]
    fn memory_bytes_tracks_postings() {
        let itl = Itl::build(
            3,
            vec![
                (cell(0, 0), ActivityId(1), TrajectoryId(0)),
                (cell(0, 0), ActivityId(1), TrajectoryId(1)),
            ],
        );
        // 2 postings * 4 + 1 key pair * 12.
        assert_eq!(itl.memory_bytes(), 20);
        // sample(): 4 postings * 4 + 3 key pairs * 12.
        assert_eq!(sample().memory_bytes(), 52);
    }
}
