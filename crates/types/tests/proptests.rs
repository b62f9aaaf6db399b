//! Property tests: ActivitySet algebra laws, geometry invariants, and
//! the result sink every engine collects into.

use atsq_types::{rank_top_k, ActivitySet, Goal, Point, QueryResult, Rect, Sink, TrajectoryId};
use proptest::prelude::*;

fn arb_set() -> impl Strategy<Value = ActivitySet> {
    prop::collection::vec(0u32..40, 0..12).prop_map(ActivitySet::from_raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn union_is_commutative_and_idempotent(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a.clone());
    }

    #[test]
    fn intersection_distributes_over_union(a in arb_set(), b in arb_set(), c in arb_set()) {
        let left = a.intersection(&b.union(&c));
        let right = a.intersection(&b).union(&a.intersection(&c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn subset_iff_union_absorbs(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.is_subset_of(&b), a.union(&b) == b);
        prop_assert!(a.intersection(&b).is_subset_of(&a));
        prop_assert!(a.is_subset_of(&a.union(&b)));
    }

    #[test]
    fn intersects_iff_nonempty_intersection(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.intersects(&b), !a.intersection(&b).is_empty());
    }

    #[test]
    fn membership_consistent_with_iteration(a in arb_set()) {
        for id in a.iter() {
            prop_assert!(a.contains(id));
        }
        // ids are strictly ascending (sorted, deduped).
        let ids = a.ids();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rect_union_contains_operands(
        ax in -50.0f64..50.0, ay in -50.0f64..50.0,
        bx in -50.0f64..50.0, by in -50.0f64..50.0,
        cx in -50.0f64..50.0, cy in -50.0f64..50.0,
        dx in -50.0f64..50.0, dy in -50.0f64..50.0,
    ) {
        let r1 = Rect::new(Point::new(ax, ay), Point::new(bx, by));
        let r2 = Rect::new(Point::new(cx, cy), Point::new(dx, dy));
        let u = r1.union(&r2);
        prop_assert!(u.contains_rect(&r1));
        prop_assert!(u.contains_rect(&r2));
        prop_assert!(u.area() + 1e-12 >= r1.area().max(r2.area()));
    }

    #[test]
    fn min_dist_triangle_consistency(
        px in -100.0f64..100.0, py in -100.0f64..100.0,
        ax in -50.0f64..50.0, ay in -50.0f64..50.0,
        bx in -50.0f64..50.0, by in -50.0f64..50.0,
        ix in 0.0f64..1.0, iy in 0.0f64..1.0,
    ) {
        let r = Rect::new(Point::new(ax, ay), Point::new(bx, by));
        let p = Point::new(px, py);
        // Any point inside the rect is at least min_dist away and at
        // most max_dist away.
        let inside = Point::new(
            r.min.x + ix * r.width(),
            r.min.y + iy * r.height(),
        );
        prop_assert!(r.min_dist(&p) <= p.dist(&inside) + 1e-9);
        prop_assert!(r.max_dist(&p) + 1e-9 >= p.dist(&inside));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever order candidates arrive in, with tied distances and
    /// `k` beyond the number offered, the sink keeps exactly what
    /// `rank_top_k` would over the same pairs, and its live cutoff is
    /// never below the final k-th distance (or the radius) — so
    /// pruning strictly against it never drops an answer.
    #[test]
    fn sink_matches_rank_top_k_in_any_order(
        // Trajectory `i` gets distance `ties[i].0 / 2` (few values, so
        // many ties) and arrives in the order of `ties[i].1`.
        ties in prop::collection::vec((0u8..6, any::<u32>()), 0..30),
        k in 0usize..40,
        tau_halves in 0u8..7,
    ) {
        let mut offers: Vec<(u32, f64, TrajectoryId)> = ties
            .iter()
            .enumerate()
            .map(|(i, &(d, order))| (order, f64::from(d) / 2.0, TrajectoryId(i as u32)))
            .collect();
        offers.sort_by_key(|&(order, _, id)| (order, id));
        let all: Vec<QueryResult> = offers
            .iter()
            .map(|&(_, d, id)| QueryResult::new(id, d))
            .collect();
        let tau = f64::from(tau_halves) / 2.0;
        for goal in [Goal::TopK(k), Goal::Range(tau)] {
            let want = match goal {
                Goal::TopK(k) => rank_top_k(all.clone(), k),
                Goal::Range(tau) => {
                    rank_top_k(all.iter().filter(|r| r.distance <= tau).cloned().collect(), usize::MAX)
                }
            };
            let floor = match goal {
                Goal::TopK(k) if k > 0 && want.len() == k => want[k - 1].distance,
                Goal::TopK(_) => f64::INFINITY,
                Goal::Range(tau) => tau,
            };
            let mut sink = Sink::new(goal, offers.len());
            prop_assert!(sink.cutoff() >= floor);
            for &(_, d, id) in &offers {
                sink.offer(d, id);
                prop_assert!(sink.cutoff() >= floor, "{:?}: {} < {}", goal, sink.cutoff(), floor);
            }
            prop_assert_eq!(sink.finish(), want, "{:?}", goal);
        }
    }
}
