//! Property tests: structural invariants and agreement with linear scan.

use atsq_rtree::RTree;
use atsq_types::{Point, Rect};
use proptest::prelude::*;

fn arb_points(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn insert_preserves_invariants(pts in arb_points(300)) {
        let mut t: RTree<usize> = RTree::new();
        for (i, &(x, y)) in pts.iter().enumerate() {
            t.insert(Rect::from_point(Point::new(x, y)), i);
        }
        prop_assert_eq!(t.len(), pts.len());
        prop_assert!(t.check_invariants().is_ok(), "{:?}", t.check_invariants());
    }

    #[test]
    fn bulk_load_preserves_invariants(pts in arb_points(300)) {
        let items: Vec<(Rect, usize)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Rect::from_point(Point::new(x, y)), i))
            .collect();
        let t: RTree<usize> = RTree::bulk_load(items);
        prop_assert_eq!(t.len(), pts.len());
        prop_assert!(t.check_invariants().is_ok(), "{:?}", t.check_invariants());
    }

    #[test]
    fn rect_search_matches_linear_scan(
        pts in arb_points(200),
        qx in -100.0f64..100.0,
        qy in -100.0f64..100.0,
        w in 0.0f64..80.0,
        h in 0.0f64..80.0,
    ) {
        let mut t: RTree<usize> = RTree::new();
        for (i, &(x, y)) in pts.iter().enumerate() {
            t.insert(Rect::from_point(Point::new(x, y)), i);
        }
        let q = Rect::from_bounds(qx, qy, qx + w, qy + h);
        let mut got: Vec<usize> = t.search_rect(&q).into_iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| q.contains_point(&Point::new(x, y)))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn nn_iteration_matches_sorted_scan(
        pts in arb_points(150),
        qx in -100.0f64..100.0,
        qy in -100.0f64..100.0,
    ) {
        let mut t: RTree<usize> = RTree::new();
        for (i, &(x, y)) in pts.iter().enumerate() {
            t.insert(Rect::from_point(Point::new(x, y)), i);
        }
        let q = Point::new(qx, qy);
        let got: Vec<f64> = t.nearest_iter(q).map(|n| n.dist).collect();
        let mut want: Vec<f64> = pts.iter().map(|&(x, y)| q.dist(&Point::new(x, y))).collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-9, "got {g} want {w}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleaved inserts and removes keep the tree consistent with a
    /// shadow model and preserve all structural invariants.
    #[test]
    fn insert_remove_matches_model(
        pts in arb_points(120),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..60),
    ) {
        let mut tree: RTree<usize> = RTree::new();
        let mut model: Vec<(f64, f64, usize)> = Vec::new();
        for (i, &(x, y)) in pts.iter().enumerate() {
            tree.insert(Rect::from_point(Point::new(x, y)), i);
            model.push((x, y, i));
        }
        for idx in removals {
            if model.is_empty() {
                break;
            }
            let (x, y, id) = model.remove(idx.index(model.len()));
            let removed = tree.remove(
                &Rect::from_point(Point::new(x, y)),
                |&v| v == id,
            );
            prop_assert_eq!(removed, Some(id));
            prop_assert!(tree.check_invariants().is_ok(), "{:?}", tree.check_invariants());
        }
        prop_assert_eq!(tree.len(), model.len());
        // Remaining contents agree with the model.
        let q = Rect::from_bounds(-200.0, -200.0, 200.0, 200.0);
        let mut got: Vec<usize> = tree.search_rect(&q).into_iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<usize> = model.iter().map(|&(_, _, i)| i).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Removing a missing item is a no-op that returns None.
    #[test]
    fn remove_missing_is_noop(pts in arb_points(50)) {
        let mut tree: RTree<usize> = RTree::new();
        for (i, &(x, y)) in pts.iter().enumerate() {
            tree.insert(Rect::from_point(Point::new(x, y)), i);
        }
        let before = tree.len();
        let gone = tree.remove(&Rect::from_point(Point::new(999.0, 999.0)), |_| true);
        prop_assert_eq!(gone, None);
        prop_assert_eq!(tree.len(), before);
        prop_assert!(tree.check_invariants().is_ok());
    }

    /// The first k items of nearest_iter are the k smallest distances.
    #[test]
    fn nearest_k_matches_sort(pts in arb_points(80), k in 0usize..20) {
        let mut tree: RTree<usize> = RTree::new();
        for (i, &(x, y)) in pts.iter().enumerate() {
            tree.insert(Rect::from_point(Point::new(x, y)), i);
        }
        let q = Point::new(0.0, 0.0);
        let got: Vec<f64> = tree.nearest_iter(q).take(k).map(|n| n.dist).collect();
        let mut want: Vec<f64> = pts.iter().map(|&(x, y)| q.dist(&Point::new(x, y))).collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for (d, w) in got.iter().zip(want.iter()) {
            prop_assert!((d - w).abs() < 1e-9);
        }
    }
}
