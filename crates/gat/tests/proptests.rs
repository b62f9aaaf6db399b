//! Property tests for the GAT components: TAS soundness, the optimal
//! sketch partition, and the Algorithm-2 lower bound's validity on
//! random micro-datasets.

use atsq_gat::tas::Sketch;
use atsq_gat::{GatConfig, GatIndex};
use atsq_matching::min_match_distance;
use atsq_types::{
    rank_top_k, ActivitySet, Dataset, DatasetBuilder, Goal, Point, Query, QueryKind, QueryPoint,
    QueryResult, TrajectoryPoint,
};
use proptest::prelude::*;

fn arb_acts(max: u32, len: usize) -> impl Strategy<Value = ActivitySet> {
    prop::collection::vec(0..max, 1..=len).prop_map(ActivitySet::from_raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// TAS never dismisses an id the trajectory contains, under any M.
    #[test]
    fn sketch_has_no_false_dismissals(acts in arb_acts(500, 20), m in 1usize..8) {
        let s = Sketch::build(acts.ids(), m);
        for id in acts.iter() {
            prop_assert!(s.contains(id));
        }
        prop_assert!(s.covers(&acts));
        prop_assert!(s.intervals().len() <= m.max(acts.len()));
    }

    /// The gap-split partition minimises total width (exhaustive check
    /// against all split choices on small inputs).
    #[test]
    fn sketch_partition_is_optimal(acts in arb_acts(200, 9), m in 1usize..5) {
        let fast = Sketch::build(acts.ids(), m).total_width();
        let ids: Vec<u32> = acts.iter().map(|a| a.0).collect();
        if ids.len() <= m {
            prop_assert_eq!(fast, 0);
            return Ok(());
        }
        let gaps = ids.len() - 1;
        let mut best = u64::MAX;
        for mask in 0u32..(1 << gaps) {
            if (mask.count_ones() as usize) != m - 1 {
                continue;
            }
            let mut width = 0u64;
            let mut start = 0usize;
            for g in 0..gaps {
                if mask & (1 << g) != 0 {
                    width += u64::from(ids[g] - ids[start]);
                    start = g + 1;
                }
            }
            width += u64::from(ids[ids.len() - 1] - ids[start]);
            best = best.min(width);
        }
        prop_assert_eq!(fast, best);
    }

    /// Sketch intervals are disjoint and ascending.
    #[test]
    fn sketch_intervals_well_formed(acts in arb_acts(300, 15), m in 1usize..6) {
        let s = Sketch::build(acts.ids(), m);
        let iv = s.intervals();
        prop_assert!(iv.iter().all(|&(lo, hi)| lo <= hi));
        prop_assert!(iv.windows(2).all(|w| w[0].1 < w[1].0));
    }
}

/// Random micro-dataset strategy: up to 12 trajectories of up to 6
/// points over a 20-activity vocabulary in a 10 km plane.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    let point = (
        0.0f64..10.0,
        0.0f64..10.0,
        prop::collection::vec(0u32..20, 1..3),
    );
    let traj = prop::collection::vec(point, 1..6);
    prop::collection::vec(traj, 1..12).prop_map(|trs| {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for i in 0..20 {
            b.observe_activity(&format!("a{i}"));
        }
        for tr in trs {
            let pts = tr
                .into_iter()
                .map(|(x, y, acts)| {
                    TrajectoryPoint::new(Point::new(x, y), ActivitySet::from_raw(acts))
                })
                .collect();
            b.push_trajectory(pts);
        }
        b.finish().expect("valid dataset")
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    prop::collection::vec(
        (
            0.0f64..10.0,
            0.0f64..10.0,
            prop::collection::vec(0u32..20, 1..3),
        ),
        1..4,
    )
    .prop_map(|pts| {
        Query::new(
            pts.into_iter()
                .map(|(x, y, acts)| QueryPoint::new(Point::new(x, y), ActivitySet::from_raw(acts)))
                .collect(),
        )
        .expect("non-empty query points")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GAT (under assorted configurations) equals the exhaustive scan
    /// on arbitrary micro-datasets — exercising the Algorithm-2 bound,
    /// the TAS filter and the termination logic together.
    #[test]
    fn gat_equals_scan_on_random_data(
        dataset in arb_dataset(),
        query in arb_query(),
        k in 1usize..6,
        grid_level in 2u8..7,
        lambda in 1usize..9,
        lb_cells in 1usize..6,
    ) {
        let idx = GatIndex::build_with(
            &dataset,
            GatConfig {
                grid_level,
                memory_level: grid_level.min(3),
                lambda,
                lb_cells,
                ..GatConfig::default()
            },
        )
        .expect("index builds");
        let got = atsq_gat::search(&idx, &dataset, &query, QueryKind::Atsq, Goal::TopK(k))
            .expect("ATSQ");
        let mut want = Vec::new();
        for tr in dataset.trajectories() {
            if let Some(d) = min_match_distance(&query, &tr.points) {
                want.push(QueryResult::new(tr.id, d));
            }
        }
        let want = rank_top_k(want, k);
        prop_assert_eq!(&got, &want, "grid={} λ={} m={}", grid_level, lambda, lb_cells);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The APL's flat columns, derived from a dataset with empty
    /// trajectories and points that carry no activity, answer exactly
    /// what a scan of the points does, and each TAS sketch built from a
    /// trajectory's APL keys is the sketch of its activity union.
    #[test]
    fn flat_apl_equals_point_scan(
        trajectories in prop::collection::vec(
            prop::collection::vec(
                (0.0f64..10.0, prop::collection::vec(0u32..12, 0..4)),
                0..8,
            ),
            1..8,
        ),
        wanted in prop::collection::vec(0u32..12, 0..4),
        m in 1usize..5,
    ) {
        use atsq_types::ActivityId;
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for i in 0..12 {
            b.observe_activity(&format!("a{i}"));
        }
        for points in trajectories {
            b.push_trajectory(
                points
                    .into_iter()
                    .map(|(x, acts)| {
                        TrajectoryPoint::new(Point::new(x, x), ActivitySet::from_raw(acts))
                    })
                    .collect(),
            );
        }
        let d = b.finish().expect("valid dataset");
        let config = GatConfig {
            grid_level: 3,
            memory_level: 2,
            tas_intervals: m,
            ..GatConfig::default()
        };
        let idx = GatIndex::build_with(&d, config).expect("index builds");
        let wanted = ActivitySet::from_raw(wanted);
        let carrying = |tr: &atsq_types::Trajectory, acts: &ActivitySet| -> Vec<u32> {
            (0..tr.len() as u32)
                .filter(|&i| tr.points[i as usize].activities.intersects(acts))
                .collect()
        };
        let mut union = Vec::new();
        for tr in d.trajectories() {
            let postings = idx.postings(tr.id.index());
            let all = tr.all_activities();
            for a in (0..12).map(ActivityId) {
                let single = ActivitySet::from_ids([a]);
                prop_assert_eq!(postings.postings(a), &carrying(tr, &single)[..]);
                prop_assert_eq!(postings.contains_all(&single), all.contains(a));
            }
            prop_assert!(postings.contains_all(&all));
            prop_assert_eq!(postings.contains_all(&wanted), wanted.is_subset_of(&all));
            postings.candidate_indexes_into(&wanted, &mut union);
            prop_assert_eq!(&union, &carrying(tr, &wanted));
            prop_assert_eq!(idx.tas().sketch(tr.id.index()), &Sketch::build(all.ids(), m));
        }
    }
}

/// Micro-datasets biased to what breaks rankings: coordinates snap to
/// a half-kilometre lattice (duplicate points, exact distance ties at
/// the k-th slot), one trajectory is pushed twice (equal distances
/// under different ids), and few trajectories make `k > n` common.
fn arb_tied_dataset() -> impl Strategy<Value = Dataset> {
    let point = (0u8..6, 0u8..6, prop::collection::vec(0u32..5, 1..3));
    let traj = prop::collection::vec(point, 1..5);
    prop::collection::vec(traj, 1..8).prop_map(|trs| {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for i in 0..5 {
            b.observe_activity(&format!("a{i}"));
        }
        let points = |tr: &Vec<(u8, u8, Vec<u32>)>| -> Vec<TrajectoryPoint> {
            tr.iter()
                .map(|(x, y, acts)| {
                    let loc = Point::new(f64::from(*x) * 0.5, f64::from(*y) * 0.5);
                    TrajectoryPoint::new(loc, ActivitySet::from_raw(acts.iter().copied()))
                })
                .collect()
        };
        for tr in &trs {
            b.push_trajectory(points(tr));
        }
        b.push_trajectory(points(&trs[0]));
        b.finish().expect("valid dataset")
    })
}

/// Queries on the same lattice and vocabulary as [`arb_tied_dataset`].
/// At most two points of at most two activities: every distance is
/// then a sum of two-term sums, which floating point adds the same in
/// any order, so the oracle's distances equal the kernels' bit for bit
/// and results can be compared exactly.
fn arb_tied_query() -> impl Strategy<Value = Query> {
    prop::collection::vec((0u8..6, 0u8..6, prop::collection::vec(0u32..5, 1..3)), 1..3).prop_map(
        |pts| {
            Query::new(
                pts.into_iter()
                    .map(|(x, y, acts)| {
                        let loc = Point::new(f64::from(x) * 0.5, f64::from(y) * 0.5);
                        QueryPoint::new(loc, ActivitySet::from_raw(acts))
                    })
                    .collect(),
            )
            .expect("non-empty query points")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharding is a pure execution strategy: for every shard count
    /// and all four query kinds, the engine
    /// returns exactly what ranking the brute-force distances returns
    /// — ids, distances and tie-breaks included — on datasets built
    /// to tie at the k-th slot, with duplicate points and `k > n`.
    #[test]
    fn sharded_engine_equals_single_index(
        dataset in arb_tied_dataset(),
        query in arb_tied_query(),
        k in 1usize..12,
        tau in 0.0f64..6.0,
    ) {
        use atsq_gat::{Partition, ShardedEngine};
        use atsq_matching::brute::{brute_dmm, brute_dmom};
        let oracle = |dist: fn(&Query, &[TrajectoryPoint]) -> Option<f64>| -> Vec<QueryResult> {
            dataset
                .trajectories()
                .iter()
                .filter_map(|tr| Some(QueryResult::new(tr.id, dist(&query, &tr.points)?)))
                .collect()
        };
        let within = |all: &[QueryResult]| -> Vec<QueryResult> {
            rank_top_k(all.iter().filter(|r| r.distance <= tau).cloned().collect(), usize::MAX)
        };
        let (dmm, dmom) = (oracle(brute_dmm), oracle(brute_dmom));
        for shards in [1usize, 2, 3, 7] {
            let engine = ShardedEngine::build(&dataset, shards, Partition::Hash)
                .expect("sharded engine");
            for (kind, goal, want) in [
                (QueryKind::Atsq, Goal::TopK(k), rank_top_k(dmm.clone(), k)),
                (QueryKind::Oatsq, Goal::TopK(k), rank_top_k(dmom.clone(), k)),
                (QueryKind::Atsq, Goal::Range(tau), within(&dmm)),
                (QueryKind::Oatsq, Goal::Range(tau), within(&dmom)),
            ] {
                let got = engine.try_search(&dataset, &query, kind, goal).expect("search");
                prop_assert_eq!(got, want, "{:?} {:?} diverged (S={})", kind, goal, shards);
            }
        }
    }
}
