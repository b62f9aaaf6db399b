//! Property tests for the snapshot subsystem: an index loaded from a
//! snapshot answers **all four query kinds identically** to the
//! freshly built index it was
//! serialized from — behind one lane or sharded (S ∈ {1, 2, 4}),
//! across random micro-datasets, queries, `k` and `tau`.

use atsq_gat::snapshot::{read_index, write_index, IndexCache};
use atsq_gat::{GatConfig, GatIndex, Partition, ShardedEngine};
use atsq_types::{
    ActivitySet, Dataset, DatasetBuilder, Goal, Point, Query, QueryKind, QueryPoint,
    TrajectoryPoint,
};
use proptest::prelude::*;

/// The four query kinds: ATSQ and OATSQ, top-`k` and within `tau`.
fn plans(k: usize, tau: f64) -> [(QueryKind, Goal); 4] {
    [
        (QueryKind::Atsq, Goal::TopK(k)),
        (QueryKind::Oatsq, Goal::TopK(k)),
        (QueryKind::Atsq, Goal::Range(tau)),
        (QueryKind::Oatsq, Goal::Range(tau)),
    ]
}

/// Random micro-dataset: up to 14 trajectories of up to 6 points over
/// a 20-activity vocabulary in a 10 km plane.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    let point = (
        0.0f64..10.0,
        0.0f64..10.0,
        prop::collection::vec(0u32..20, 1..3),
    );
    let traj = prop::collection::vec(point, 1..6);
    prop::collection::vec(traj, 1..14).prop_map(|trs| {
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

fn small_config(grid_level: u8) -> GatConfig {
    GatConfig {
        grid_level,
        memory_level: grid_level.min(3),
        ..GatConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single index: snapshot → load answers every query kind exactly
    /// like the built index, for arbitrary data, queries, k and tau.
    #[test]
    fn loaded_index_answers_identically(
        dataset in arb_dataset(),
        query in arb_query(),
        k in 1usize..7,
        tau in 0.0f64..15.0,
        grid_level in 2u8..7,
    ) {
        let built = GatIndex::build_with(&dataset, small_config(grid_level)).expect("build");
        let bytes = write_index(&built, &dataset);
        let loaded = read_index(&bytes, &dataset).expect("load");
        for (kind, goal) in plans(k, tau) {
            prop_assert_eq!(
                atsq_gat::search(&built, &dataset, &query, kind, goal).expect("search"),
                atsq_gat::search(&loaded, &dataset, &query, kind, goal).expect("search")
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A sharded engine over an index restored from the cache answers
    /// every query kind exactly like the engine built directly, for
    /// S ∈ {1, 2, 4} — from the one snapshot.
    #[test]
    fn loaded_sharded_engine_answers_identically(
        dataset in arb_dataset(),
        query in arb_query(),
        k in 1usize..7,
        tau in 0.0f64..15.0,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "atsq-snapshot-proptest-{}",
            std::process::id()
        ));
        let cache = IndexCache::new(&dir);
        let config = small_config(4);
        cache
            .save_index(&dataset, &GatIndex::build_with(&dataset, config).expect("build"))
            .expect("save");
        for shards in [1usize, 2, 4] {
            let built = ShardedEngine::build_with(&dataset, shards, Partition::Hash, config)
                .expect("build sharded");
            let index = cache.load_index(&dataset, &config).expect("load");
            let loaded = ShardedEngine::from_index(index, &dataset, shards, Partition::Hash)
                .expect("shard the loaded index");
            for (kind, goal) in plans(k, tau) {
                prop_assert_eq!(
                    built.try_search(&dataset, &query, kind, goal).expect("search"),
                    loaded.try_search(&dataset, &query, kind, goal).expect("search")
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
