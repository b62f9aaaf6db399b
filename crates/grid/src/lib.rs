//! Hierarchical grid partitioning of space (§IV of the paper).
//!
//! The paper's GAT index divides the whole spatial region into
//! `2^d × 2^d` quad cells (the *d-Grid*), then coarsens to the
//! `(d−1)`-Grid, …, down to the 1-Grid, forming a hierarchy in which
//! every cell at level `l` has exactly four children at level `l+1`.
//! Each cell gets a unique numerical id via a space-filling curve; this
//! crate uses the Z-order (Morton) curve, which makes parent/child
//! navigation two bit-shifts.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod morton;

use atsq_types::{Point, Rect};
pub use morton::{morton_decode, morton_encode};
use std::fmt;

/// Identifier of one grid cell: its level in the hierarchy plus its
/// Morton code within that level.
///
/// Level 0 is the single root cell covering the whole region; level `d`
/// is the finest (leaf) grid of `2^d × 2^d` cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId {
    /// Hierarchy level, `0 ..= Grid::max_level`.
    pub level: u8,
    /// Morton code of the cell within its level, `< 4^level`.
    pub code: u64,
}

impl CellId {
    /// The root cell (level 0) covering the whole region.
    pub const ROOT: CellId = CellId { level: 0, code: 0 };

    /// The parent cell one level up. Returns `None` for the root.
    #[inline]
    pub fn parent(self) -> Option<CellId> {
        if self.level == 0 {
            None
        } else {
            Some(CellId {
                level: self.level - 1,
                code: self.code >> 2,
            })
        }
    }

    /// The four child cells one level down (caller must ensure the
    /// result level does not exceed the grid's maximum).
    #[inline]
    pub fn children(self) -> [CellId; 4] {
        let base = self.code << 2;
        let level = self.level + 1;
        [
            CellId { level, code: base },
            CellId {
                level,
                code: base + 1,
            },
            CellId {
                level,
                code: base + 2,
            },
            CellId {
                level,
                code: base + 3,
            },
        ]
    }

    /// Whether `self` is an ancestor of (or equal to) `other`.
    pub fn is_ancestor_of(self, other: CellId) -> bool {
        other.level >= self.level
            && (other.code >> (2 * (other.level - self.level) as u64)) == self.code
    }

    /// The ancestor of this cell at `level` (which must be ≤ this
    /// cell's level).
    pub fn ancestor_at(self, level: u8) -> CellId {
        assert!(level <= self.level, "ancestor level above cell level");
        CellId {
            level,
            code: self.code >> (2 * (self.level - level) as u64),
        }
    }

    /// Column/row of this cell within its level's grid.
    #[inline]
    pub fn xy(self) -> (u32, u32) {
        morton_decode(self.code)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}#{}", self.level, self.code)
    }
}

/// The hierarchical grid over a rectangular region.
///
/// `max_level` is the paper's `d`: the finest partition has
/// `2^d × 2^d` cells. The paper's default is `d = 8` (256×256).
#[derive(Debug, Clone)]
pub struct Grid {
    region: Rect,
    max_level: u8,
}

impl Grid {
    /// Maximum supported depth (Morton codes fit u64 comfortably).
    pub const MAX_SUPPORTED_LEVEL: u8 = 30;

    /// Creates a grid over `region` with finest level `max_level` (`d`).
    ///
    /// # Panics
    /// Panics if the region is empty/degenerate or `max_level` is 0 or
    /// above [`Grid::MAX_SUPPORTED_LEVEL`].
    pub fn new(region: Rect, max_level: u8) -> Self {
        assert!(
            (1..=Self::MAX_SUPPORTED_LEVEL).contains(&max_level),
            "grid level must be in 1..={}",
            Self::MAX_SUPPORTED_LEVEL
        );
        assert!(
            !region.is_empty() && region.width() > 0.0 && region.height() > 0.0,
            "grid region must have positive area"
        );
        Grid { region, max_level }
    }

    /// The covered region.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// The finest level `d`.
    #[inline]
    pub fn max_level(&self) -> u8 {
        self.max_level
    }

    /// Cells per axis at `level` (`2^level`).
    #[inline]
    pub fn cells_per_axis(&self, level: u8) -> u32 {
        1u32 << level
    }

    /// Total number of cells at `level` (`4^level`).
    #[inline]
    pub fn cell_count(&self, level: u8) -> u64 {
        1u64 << (2 * level as u64)
    }

    /// The leaf cell (level `d`) containing `p`. Points outside the
    /// region are clamped to the border cells, so every point maps to a
    /// valid cell.
    pub fn leaf_cell_of(&self, p: &Point) -> CellId {
        self.cell_of(p, self.max_level)
    }

    /// The cell at `level` containing `p` (clamped to the region).
    pub fn cell_of(&self, p: &Point, level: u8) -> CellId {
        assert!(level <= self.max_level, "level beyond grid depth");
        let n = self.cells_per_axis(level) as f64;
        let fx = ((p.x - self.region.min.x) / self.region.width()) * n;
        let fy = ((p.y - self.region.min.y) / self.region.height()) * n;
        let ix = (fx.floor().max(0.0) as u64).min(n as u64 - 1) as u32;
        let iy = (fy.floor().max(0.0) as u64).min(n as u64 - 1) as u32;
        CellId {
            level,
            code: morton_encode(ix, iy),
        }
    }

    /// The rectangle covered by `cell`.
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        let n = self.cells_per_axis(cell.level) as f64;
        let (ix, iy) = cell.xy();
        let w = self.region.width() / n;
        let h = self.region.height() / n;
        let min_x = self.region.min.x + ix as f64 * w;
        let min_y = self.region.min.y + iy as f64 * h;
        Rect::from_bounds(min_x, min_y, min_x + w, min_y + h)
    }

    /// Minimum distance from `p` to `cell` (zero when inside) — the
    /// `mdist` key of the paper's best-first priority queue.
    #[inline]
    pub fn min_dist(&self, cell: CellId, p: &Point) -> f64 {
        self.cell_rect(cell).min_dist(p)
    }

    /// Maximum distance from `p` to any point of `cell`.
    #[inline]
    pub fn max_dist(&self, cell: CellId, p: &Point) -> f64 {
        self.cell_rect(cell).max_dist(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(d: u8) -> Grid {
        Grid::new(Rect::from_bounds(0.0, 0.0, 64.0, 64.0), d)
    }

    #[test]
    fn cell_of_maps_quadrants() {
        let g = grid(1);
        assert_eq!(g.cell_of(&Point::new(1.0, 1.0), 1).xy(), (0, 0));
        assert_eq!(g.cell_of(&Point::new(63.0, 1.0), 1).xy(), (1, 0));
        assert_eq!(g.cell_of(&Point::new(1.0, 63.0), 1).xy(), (0, 1));
        assert_eq!(g.cell_of(&Point::new(63.0, 63.0), 1).xy(), (1, 1));
    }

    #[test]
    fn out_of_region_points_clamp() {
        let g = grid(3);
        let c = g.leaf_cell_of(&Point::new(-100.0, 1000.0));
        assert_eq!(c.xy(), (0, 7));
        // Exactly on the max border clamps to the last cell.
        let c = g.leaf_cell_of(&Point::new(64.0, 64.0));
        assert_eq!(c.xy(), (7, 7));
    }

    #[test]
    fn cell_rect_roundtrip() {
        let g = grid(4);
        for &(x, y) in &[(0.5, 0.5), (10.0, 50.0), (63.9, 0.1), (32.0, 32.0)] {
            let p = Point::new(x, y);
            let c = g.leaf_cell_of(&p);
            let r = g.cell_rect(c);
            assert!(r.contains_point(&p), "cell {c} rect {r:?} misses {p}");
            assert!((r.width() - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn parent_child_consistency() {
        let g = grid(5);
        let p = Point::new(17.3, 42.8);
        let leaf = g.leaf_cell_of(&p);
        let parent = leaf.parent().unwrap();
        assert_eq!(parent, g.cell_of(&p, 4));
        assert!(leaf.children().iter().all(|ch| ch.parent() == Some(leaf)));
        assert!(parent.children().contains(&leaf));
        assert!(parent.is_ancestor_of(leaf));
        assert!(CellId::ROOT.is_ancestor_of(leaf));
        assert!(!leaf.is_ancestor_of(parent));
        assert_eq!(leaf.ancestor_at(0), CellId::ROOT);
        assert_eq!(leaf.ancestor_at(4), parent);
    }

    #[test]
    fn child_rects_tile_parent() {
        let g = grid(3);
        let parent = g.cell_of(&Point::new(20.0, 20.0), 2);
        let pr = g.cell_rect(parent);
        let mut area = 0.0;
        for ch in parent.children() {
            let cr = g.cell_rect(ch);
            assert!(pr.contains_rect(&cr));
            area += cr.area();
        }
        assert!((area - pr.area()).abs() < 1e-9);
    }

    #[test]
    fn min_dist_zero_inside_positive_outside() {
        let g = grid(3);
        let c = g.cell_of(&Point::new(4.0, 4.0), 3); // cell [0,8)x[0,8)
        assert_eq!(g.min_dist(c, &Point::new(4.0, 4.0)), 0.0);
        let d = g.min_dist(c, &Point::new(16.0, 4.0));
        assert!((d - 8.0).abs() < 1e-9);
        assert!(g.max_dist(c, &Point::new(16.0, 4.0)) >= d);
    }

    #[test]
    fn cell_counts() {
        let g = grid(8);
        assert_eq!(g.cells_per_axis(8), 256);
        assert_eq!(g.cell_count(8), 65536);
        assert_eq!(g.cell_count(1), 4);
        assert_eq!(g.cell_count(0), 1);
    }

    #[test]
    #[should_panic(expected = "grid level")]
    fn zero_level_rejected() {
        let _ = grid(0);
    }

    #[test]
    #[should_panic(expected = "positive area")]
    fn degenerate_region_rejected() {
        let _ = Grid::new(Rect::from_bounds(0.0, 0.0, 0.0, 10.0), 4);
    }
}
