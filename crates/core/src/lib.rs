//! `atsq-core` — the public facade of the activity-trajectory search
//! library, reproducing *Towards Efficient Search for Activity
//! Trajectories* (Zheng, Shang, Yuan & Yang, ICDE 2013).
//!
//! # Quickstart
//!
//! ```
//! use atsq_core::prelude::*;
//!
//! // Build a small dataset by hand (normally: atsq-datagen or your
//! // own check-in import).
//! let mut b = DatasetBuilder::new();
//! let coffee = b.observe_activity("coffee");
//! let art = b.observe_activity("art");
//! b.push_trajectory(vec![
//!     TrajectoryPoint::new(Point::new(0.0, 0.0), ActivitySet::from_ids([coffee])),
//!     TrajectoryPoint::new(Point::new(1.0, 0.0), ActivitySet::from_ids([art])),
//! ]);
//! let dataset = b.finish().unwrap();
//!
//! // Index it with GAT and run an ATSQ.
//! let engine = GatEngine::build(&dataset).unwrap();
//! let coffee = dataset.vocabulary().get("coffee").unwrap();
//! let art = dataset.vocabulary().get("art").unwrap();
//! let query = Query::new(vec![
//!     QueryPoint::new(Point::new(0.1, 0.0), ActivitySet::from_ids([coffee])),
//!     QueryPoint::new(Point::new(0.9, 0.0), ActivitySet::from_ids([art])),
//! ]).unwrap();
//! let top = engine.atsq(&dataset, &query, 1);
//! assert_eq!(top.len(), 1);
//! ```
//!
//! # Engines
//!
//! Four interchangeable [`QueryEngine`] implementations exist, matching
//! the paper's evaluation line-up. The trait lives in `atsq-types` and
//! each engine implements it once, in its own crate, through one
//! required method, [`QueryEngine::search`], which takes the
//! [`QueryKind`] (ATSQ or OATSQ) and the [`Goal`] (top-k or range);
//! `atsq`, `oatsq`, `atsq_range` and `oatsq_range` are provided
//! one-line calls of it.
//!
//! | Engine | Index | Paper section |
//! |---|---|---|
//! | [`GatEngine`] | hierarchical grid + HICL/ITL/TAS/APL | §IV–§VI |
//! | [`IlEngine`] | per-activity inverted lists | §III-A |
//! | [`RtEngine`] | R-tree over points | §III-B |
//! | [`IrtEngine`] | IR-tree (R-tree + inverted files) | §III-C |
//!
//! All four return *identical* results for the same query; they differ
//! only in how fast they prune. Property tests in `tests/` assert this
//! agreement.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod profile;

pub use atsq_baselines::{IlEngine, IrtEngine, RtEngine};
pub use atsq_gat::{
    snapshot, CacheOutcome, GatConfig, GatIndex, IndexCache, Partition, ShardedEngine,
};
pub use atsq_matching as matching;
pub use atsq_types as types;
pub use atsq_types::{Goal, QueryEngine, QueryKind};
pub use profile::{EngineCounters, Profiled};

use atsq_types::{Dataset, Query, QueryResult, Result};

/// A ready-to-use prelude: the types needed by typical applications.
pub mod prelude {
    pub use crate::{Engine, GatEngine, Goal, QueryEngine, QueryKind};
    pub use atsq_baselines::{IlEngine, IrtEngine, RtEngine};
    pub use atsq_gat::{GatConfig, Partition, ShardedEngine};
    pub use atsq_types::{
        ActivityId, ActivitySet, Dataset, DatasetBuilder, Point, Query, QueryPoint, QueryResult,
        Rect, Trajectory, TrajectoryId, TrajectoryPoint,
    };
}

/// The paper's proposed engine: a [`GatIndex`] behind [`QueryEngine`].
#[derive(Debug)]
pub struct GatEngine {
    index: GatIndex,
}

impl GatEngine {
    /// Builds the GAT index with default (paper) configuration.
    pub fn build(dataset: &Dataset) -> Result<Self> {
        Ok(GatEngine {
            index: GatIndex::build(dataset)?,
        })
    }

    /// Builds with an explicit configuration.
    pub fn build_with(dataset: &Dataset, config: GatConfig) -> Result<Self> {
        Ok(GatEngine {
            index: GatIndex::build_with(dataset, config)?,
        })
    }

    /// Wraps an already built (or snapshot-loaded) index.
    pub fn from_index(index: GatIndex) -> Self {
        GatEngine { index }
    }

    /// The underlying index (stats, memory reports).
    pub fn index(&self) -> &GatIndex {
        &self.index
    }
}

impl QueryEngine for GatEngine {
    /// [`atsq_gat::search()`] over the engine's index. Panics on a
    /// dataset shorter than the one indexed.
    fn search(
        &self,
        dataset: &Dataset,
        query: &Query,
        kind: QueryKind,
        goal: Goal,
    ) -> Vec<QueryResult> {
        atsq_gat::search(&self.index, dataset, query, kind, goal).expect("GAT search failed")
    }

    fn name(&self) -> &'static str {
        "GAT"
    }
}

/// Owned enum over the engines, convenient for benchmark sweeps and
/// for serving one concrete type.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // engines are built once and never moved
pub enum Engine {
    /// The paper's GAT engine.
    Gat(GatEngine),
    /// Inverted-list baseline.
    Il(IlEngine),
    /// R-tree baseline.
    Rt(RtEngine),
    /// IR-tree baseline.
    Irt(IrtEngine),
    /// Sharded parallel GAT (one index, candidate verification split
    /// over `S` lanes). Not part of [`Engine::build_all`]'s paper
    /// line-up, and built by no serving path: only the benchmark's
    /// `engine-direct` S = 2 arm and the engine tests use it, until
    /// ROADMAP item 6 removes it.
    Sharded(ShardedEngine),
}

impl Engine {
    /// Builds the GAT engine, optionally through a persistent
    /// [`IndexCache`]: one index behind a [`GatEngine`], or, when
    /// `shards > 1`, behind the [`ShardedEngine`] experiment. Every
    /// serving path passes `1` and [`Partition::Hash`]. With a cache, a
    /// valid snapshot keyed by the dataset's content hash is *loaded*
    /// (answers are byte-identical to a fresh build); a missing, stale
    /// or corrupt snapshot triggers a fresh build whose snapshot is
    /// saved for the next start. The snapshot is the same for every
    /// shard count. Returns the engine plus the cache outcome (`None`
    /// when no cache was used).
    pub fn build_gat(
        dataset: &Dataset,
        shards: usize,
        partition: Partition,
        cache: Option<&IndexCache>,
    ) -> Result<(Engine, Option<CacheOutcome>)> {
        let (index, outcome) = match cache {
            Some(cache) => {
                let (index, outcome) = cache.load_or_build(dataset, GatConfig::default())?;
                (index, Some(outcome))
            }
            None => (GatIndex::build(dataset)?, None),
        };
        let engine = if shards > 1 {
            Engine::Sharded(ShardedEngine::from_index(
                index, dataset, shards, partition,
            )?)
        } else {
            Engine::Gat(GatEngine::from_index(index))
        };
        Ok((engine, outcome))
    }

    /// Estimated resident bytes of the engine itself (the serving
    /// dataset is accounted separately): every index component for
    /// GAT, plus the id → lane table for the sharded engine. The
    /// baselines are not served multi-tenant and report zero. Feeds
    /// the tenancy layer's memory-budget accountant.
    pub fn approx_resident_bytes(&self) -> usize {
        match self {
            Engine::Gat(e) => e.index().memory_report().total_bytes(),
            Engine::Sharded(e) => e.approx_resident_bytes(),
            Engine::Il(_) | Engine::Rt(_) | Engine::Irt(_) => 0,
        }
    }

    /// Builds every engine for a dataset, in the paper's order
    /// (IL, RT, IRT, GAT).
    pub fn build_all(dataset: &Dataset) -> Result<Vec<Engine>> {
        Ok(vec![
            Engine::Il(IlEngine::build(dataset)),
            Engine::Rt(RtEngine::build(dataset)),
            Engine::Irt(IrtEngine::build(dataset)),
            Engine::Gat(GatEngine::build(dataset)?),
        ])
    }
}

/// What every engine inside an [`Engine`] offers: queries and work
/// counters.
trait Served: QueryEngine + Profiled {}

impl<E: QueryEngine + Profiled> Served for E {}

impl Engine {
    /// The engine inside: the one dispatch every [`Engine`] method
    /// goes through.
    fn served(&self) -> &dyn Served {
        match self {
            Engine::Gat(e) => e,
            Engine::Il(e) => e,
            Engine::Rt(e) => e,
            Engine::Irt(e) => e,
            Engine::Sharded(e) => e,
        }
    }
}

impl QueryEngine for Engine {
    fn search(
        &self,
        dataset: &Dataset,
        query: &Query,
        kind: QueryKind,
        goal: Goal,
    ) -> Vec<QueryResult> {
        self.served().search(dataset, query, kind, goal)
    }

    fn name(&self) -> &'static str {
        self.served().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};

    #[test]
    fn all_engines_agree_on_generated_data() {
        let dataset = generate(&CityConfig::tiny(17)).unwrap();
        let engines = Engine::build_all(&dataset).unwrap();
        let queries = generate_queries(
            &dataset,
            &QueryGenConfig {
                query_points: 2,
                acts_per_point: 2,
                ..Default::default()
            },
            5,
        );
        let n = dataset.len();
        for (q, kind) in queries
            .iter()
            .flat_map(|q| [(q, QueryKind::Atsq), (q, QueryKind::Oatsq)])
        {
            let reference = engines[0].search(&dataset, q, kind, Goal::TopK(5));
            for e in &engines {
                let got = e.search(&dataset, q, kind, Goal::TopK(5));
                assert_eq!(got, reference, "{} diverged ({kind:?})", e.name());
                // `k` comes from the command line and the wire: a `k`
                // past the dataset must neither reserve for it nor
                // overflow.
                let all = e.search(&dataset, q, kind, Goal::TopK(n));
                assert_eq!(e.search(&dataset, q, kind, Goal::TopK(usize::MAX)), all);
            }
        }
    }

    #[test]
    fn build_gat_through_cache_matches_direct_build() {
        let dataset = generate(&CityConfig::tiny(29)).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 4);
        let dir = std::env::temp_dir().join(format!("atsq-core-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = IndexCache::new(&dir);
        for shards in [1usize, 3] {
            let (direct, outcome) =
                Engine::build_gat(&dataset, shards, Partition::Hash, None).unwrap();
            assert!(outcome.is_none());
            let (cold, outcome) =
                Engine::build_gat(&dataset, shards, Partition::Hash, Some(&cache)).unwrap();
            // One snapshot serves every shard count: only the very
            // first start finds the cache cold.
            assert_eq!(outcome.unwrap().loaded(), shards > 1);
            let (warm, outcome) =
                Engine::build_gat(&dataset, shards, Partition::Hash, Some(&cache)).unwrap();
            assert!(outcome.unwrap().loaded(), "warm cache must load");
            for q in &queries {
                let want = direct.atsq(&dataset, q, 5);
                assert_eq!(cold.atsq(&dataset, q, 5), want);
                assert_eq!(warm.atsq(&dataset, q, 5), want);
                let want = direct.oatsq_range(&dataset, q, 40.0);
                assert_eq!(warm.oatsq_range(&dataset, q, 40.0), want);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A cache directory written by earlier builds, byte for byte as
    /// they wrote it for this dataset: a kind-2 manifest plus one index
    /// file per shard at S = 2 (hash), and a format-1 or format-2
    /// single-index snapshot under the very name this build uses. This
    /// build reads none of them, so the first sharded start misses,
    /// builds, and overwrites the old single-index file with a format-3
    /// snapshot that the next start loads; the listing reports the
    /// leftovers as `unsupported snapshot version 1`.
    #[test]
    fn legacy_sharded_cache_dir_rebuilds_cleanly() {
        use atsq_types::{ActivitySet, DatasetBuilder, Point, QueryPoint, TrajectoryPoint};
        const SINGLE: &str = "gat-fbb7ee7693c28141-cbe11c6b1.idx";
        /// The format-2 snapshot of this dataset: grid, ITL, TAS, APL.
        const V2: &str = "41545351534e4150020001004181c29376eeb7fb3dd9c38e9500000000\
             000000080604200803000000000000000000000000000000000000000000\
             000840000000000000f03f080808009122b3669122d5aa019122b3669122\
             0900010101010101010108000000000101010109000101010101010101\
             080001020300010203040400000100040000010004000001000400000100\
             040702000100010101070200010001010107020001000101010702000100\
             010101";
        const LEGACY: [(&str, &str); 4] = [
            (
                SINGLE,
                "41545351534e4150010001004181c29376eeb7fbfb4ca9f8fe0000000000\
                 0000080604200803000000000000000000000000000000000000000000\
                 000840000000000000f03f0808020002000104000103010400040d0404\
                 00113311040044cd014404009102b30691020400c408cd19c408040091\
                 22b366912201020201040a010301042a040d0404aa0111331104aa0544\
                 cd014404aa159102b306910204aa55c408cd19c40804aad5029122b366\
                 912208080001000100912201000101c4880101000102d5aa0101000103\
                 aad50201010100bbf70201010101eedd0301010102ffff030101010304\
                 0400000100040000010004000001000400000100040702000100010101\
                 070200010001010107020001000101010702000100010101",
            ),
            (
                "gat-fbb7ee7693c28141-s2-hash-cbe11c6b1.manifest",
                "41545351534e4150010002004181c29376eeb7fbdca5eba2080000000000\
                 00000200080604200803",
            ),
            (
                "gat-fbb7ee7693c28141-s2-hash-cbe11c6b1.shard000.idx",
                "41545351534e41500100010004e5069e702c81a38cfd3b508a0000000000\
                 0000030304200803000000000000000000000000000000000000000000\
                 000840000000000000f03f03030200020001030001040300041101020201\
                 030a0104032a041103060001000100040100010115010001022a01010100\
                 2e010101013f010101020304000001000400000100040000010003070200\
                 010001010107020001000101010702000100010101",
            ),
            (
                "gat-fbb7ee7693c28141-s2-hash-cbe11c6b1.shard001.idx",
                "41545351534e415001000100ee2c88b8ca12ebd68617b9ab520000000000\
                 0000030304200803000000000000f83f00000000000000000000000000\
                 000440000000000000f03f03030200010101040110010103010e013a0302\
                 10010001003a01010100010400000100010702000100010101",
            ),
        ];
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        let coffee = b.observe_activity("coffee");
        let art = b.observe_activity("art");
        for x in [0.0, 1.0, 2.0, 3.0] {
            b.push_trajectory(vec![
                TrajectoryPoint::new(Point::new(x, 0.0), ActivitySet::from_ids([coffee])),
                TrajectoryPoint::new(Point::new(x, 1.0), ActivitySet::from_ids([art])),
            ]);
        }
        let dataset = b.finish().unwrap();
        assert_eq!(dataset.content_hash(), 0xfbb7_ee76_93c2_8141);

        let (direct, _) = Engine::build_gat(&dataset, 1, Partition::Hash, None).unwrap();
        let q = Query::new(vec![QueryPoint::new(
            Point::new(2.2, 0.0),
            ActivitySet::from_ids([coffee]),
        )])
        .unwrap();
        let unhex = |hex: &str| -> Vec<u8> {
            let hex: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
            hex.chunks(2)
                .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
                .collect()
        };

        let dir = std::env::temp_dir().join(format!("atsq-core-legacy-{}", std::process::id()));
        for (version, single) in [(1, LEGACY[0].1), (2, V2)] {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            for (name, hex) in LEGACY {
                std::fs::write(dir.join(name), unhex(hex)).unwrap();
            }
            std::fs::write(dir.join(SINGLE), unhex(single)).unwrap();
            let old = format!("unsupported snapshot version {version}");
            let err = snapshot::inspect(&dir.join(SINGLE))
                .unwrap_err()
                .to_string();
            assert!(err.contains(&old), "{err}");
            let cache = IndexCache::new(&dir);

            let (engine, outcome) =
                Engine::build_gat(&dataset, 2, Partition::Hash, Some(&cache)).unwrap();
            match outcome.unwrap() {
                CacheOutcome::Rebuilt(why) => {
                    assert!(why.contains(&old), "{why}");
                    assert!(why.ends_with("snapshot saved"), "{why}");
                }
                CacheOutcome::Loaded => panic!("legacy files must not load"),
            }
            assert_eq!(engine.atsq(&dataset, &q, 3), direct.atsq(&dataset, &q, 3));
            let (_, outcome) =
                Engine::build_gat(&dataset, 2, Partition::Hash, Some(&cache)).unwrap();
            assert!(
                outcome.unwrap().loaded(),
                "the saved snapshot must now load"
            );

            let listing: Vec<String> = cache
                .entries()
                .unwrap()
                .iter()
                .map(|path| match snapshot::inspect(path) {
                    Ok(info) => format!("{} v{}", info.kind, info.version),
                    Err(e) => e.to_string(),
                })
                .collect();
            assert_eq!(listing[0], "index v3", "{listing:?}");
            assert_eq!(listing.len(), 4, "{listing:?}");
            for old in &listing[1..] {
                assert!(old.contains("unsupported snapshot version 1"), "{old}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_names() {
        let dataset = generate(&CityConfig::tiny(1)).unwrap();
        let engines = Engine::build_all(&dataset).unwrap();
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["IL", "RT", "IRT", "GAT"]);
    }
}
