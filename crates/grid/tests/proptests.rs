//! Property tests for the hierarchical grid and the Morton curve.

use atsq_grid::{morton_decode, morton_encode, Grid};
use atsq_types::{Point, Rect};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn morton_roundtrip(x in any::<u32>(), y in any::<u32>()) {
        prop_assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
    }

    #[test]
    fn morton_parent_relation(x in 0u32..1 << 15, y in 0u32..1 << 15) {
        prop_assert_eq!(morton_encode(x, y) >> 2, morton_encode(x / 2, y / 2));
    }

    /// Every point maps to a cell whose rect contains it, at every level.
    #[test]
    fn cell_of_contains_point(
        x in 0.0f64..100.0,
        y in 0.0f64..100.0,
        level in 1u8..10,
    ) {
        let g = Grid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 10);
        let p = Point::new(x, y);
        let c = g.cell_of(&p, level);
        prop_assert!(g.cell_rect(c).contains_point(&p));
        prop_assert_eq!(g.min_dist(c, &p), 0.0);
    }

    /// The ancestor chain is geometrically nested.
    #[test]
    fn ancestors_nest(x in 0.0f64..100.0, y in 0.0f64..100.0) {
        let g = Grid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 8);
        let leaf = g.leaf_cell_of(&Point::new(x, y));
        let mut cell = leaf;
        while let Some(parent) = cell.parent() {
            if parent.level == 0 {
                break;
            }
            prop_assert!(g.cell_rect(parent).contains_rect(&g.cell_rect(cell)));
            prop_assert!(parent.is_ancestor_of(leaf));
            cell = parent;
        }
    }

    /// mindist to a cell lower-bounds the distance to any point inside it.
    #[test]
    fn min_dist_is_a_lower_bound(
        px in -50.0f64..150.0,
        py in -50.0f64..150.0,
        ix in 0.0f64..100.0,
        iy in 0.0f64..100.0,
        level in 1u8..8,
    ) {
        let g = Grid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 8);
        let q = Point::new(px, py);
        let inner = Point::new(ix, iy);
        let cell = g.cell_of(&inner, level);
        prop_assert!(g.min_dist(cell, &q) <= q.dist(&inner) + 1e-9);
        prop_assert!(g.max_dist(cell, &q) + 1e-9 >= q.dist(&inner));
    }
}
