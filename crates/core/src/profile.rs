//! Unified per-engine work counters.
//!
//! The paper argues GAT wins because it prunes with location and
//! activity *simultaneously*; wall-clock alone cannot show that. Every
//! engine already counts its work (trajectory fetches in the baselines,
//! the full [`atsq_gat::IoStats`] pipeline in GAT); this module puts
//! those counters behind one [`EngineCounters`] snapshot so experiments
//! can report pruning power next to latency.

use crate::{Engine, GatEngine, ShardedEngine};
use atsq_baselines::{IlEngine, IrtEngine, RtEngine};

/// Work performed by an engine since the last reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCounters {
    /// Candidate trajectories considered.
    pub candidates: u64,
    /// Full match-distance evaluations (`Dmm` / `Dmom`).
    pub distance_evals: u64,
    /// Candidates discarded by the TAS sketch before touching data
    /// (GAT only; zero elsewhere).
    pub tas_pruned: u64,
    /// TAS passes later refuted by the APL (sketch false positives).
    pub tas_false_positives: u64,
    /// APL posting-list fetches (GAT only).
    pub apl_reads: u64,
    /// Cold HICL accesses — index pages the paper serves from disk
    /// (GAT only).
    pub cold_reads: u64,
}

impl EngineCounters {
    /// Fraction of candidates eliminated before a distance evaluation,
    /// clamped to `[0, 1]`. The raw counters can transiently report
    /// `distance_evals > candidates` when a reset races in-flight
    /// queries (see `IoStats::reset` in `atsq-gat`); a monitoring
    /// ratio must saturate at zero rather than go negative.
    pub fn prune_ratio(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            (1.0 - self.distance_evals as f64 / self.candidates as f64).max(0.0)
        }
    }
}

/// A per-query counter delta from `atsq-obs` maps onto the same
/// vocabulary as the engine-lifetime counters, including the derived
/// TAS-pruned figure.
impl From<atsq_obs::QueryCounters> for EngineCounters {
    fn from(c: atsq_obs::QueryCounters) -> EngineCounters {
        EngineCounters {
            candidates: c.candidates,
            distance_evals: c.distance_evals,
            tas_pruned: c.tas_checks.saturating_sub(c.apl_reads),
            tas_false_positives: c.tas_false_positives,
            apl_reads: c.apl_reads,
            cold_reads: c.cold_reads,
        }
    }
}

/// Engines that expose their work counters.
pub trait Profiled {
    /// Snapshot of the counters since the last reset.
    fn counters(&self) -> EngineCounters;
    /// Zeroes the counters.
    fn reset_counters(&self);
}

impl Profiled for GatEngine {
    fn counters(&self) -> EngineCounters {
        counters_from_io(self.index().stats().snapshot())
    }
    fn reset_counters(&self) {
        self.index().stats().reset();
    }
}

fn counters_from_io(s: atsq_gat::stats::IoSnapshot) -> EngineCounters {
    EngineCounters {
        candidates: s.candidates_retrieved,
        distance_evals: s.distances_computed,
        // Every candidate that passes the sketch proceeds to the APL,
        // so the TAS discards are checks minus APL reads.
        tas_pruned: s.tas_checks.saturating_sub(s.apl_reads),
        tas_false_positives: s.tas_false_positives,
        apl_reads: s.apl_reads,
        cold_reads: s.hicl_cold_reads,
    }
}

impl EngineCounters {
    /// Component-wise sum — aggregates per-shard counters into one.
    pub fn sum(counters: impl IntoIterator<Item = EngineCounters>) -> EngineCounters {
        counters
            .into_iter()
            .fold(EngineCounters::default(), |a, b| EngineCounters {
                candidates: a.candidates + b.candidates,
                distance_evals: a.distance_evals + b.distance_evals,
                tas_pruned: a.tas_pruned + b.tas_pruned,
                tas_false_positives: a.tas_false_positives + b.tas_false_positives,
                apl_reads: a.apl_reads + b.apl_reads,
                cold_reads: a.cold_reads + b.cold_reads,
            })
    }
}

impl Profiled for ShardedEngine {
    fn counters(&self) -> EngineCounters {
        // Lane counters plus the traversal's: candidates are charged
        // to their owning lane at routing time, but cold HICL reads of
        // the traversal land on the index's own counters and must not
        // vanish from engine totals.
        EngineCounters::sum(
            self.per_shard_stats()
                .into_iter()
                .chain(std::iter::once(self.router_stats()))
                .map(counters_from_io),
        )
    }
    fn reset_counters(&self) {
        self.reset_stats();
    }
}

/// The baselines evaluate the distance of every trajectory they fetch,
/// so `candidates == distance_evals == fetches`.
macro_rules! profiled_baseline {
    ($engine:ty) => {
        impl Profiled for $engine {
            fn counters(&self) -> EngineCounters {
                let fetches = self.fetches();
                EngineCounters {
                    candidates: fetches,
                    distance_evals: fetches,
                    ..EngineCounters::default()
                }
            }
            fn reset_counters(&self) {
                self.reset_fetches();
            }
        }
    };
}

profiled_baseline!(IlEngine);
profiled_baseline!(RtEngine);
profiled_baseline!(IrtEngine);

impl Profiled for Engine {
    fn counters(&self) -> EngineCounters {
        self.served().counters()
    }
    fn reset_counters(&self) {
        self.served().reset_counters();
    }
}

impl Engine {
    /// Work counters broken out per shard — one entry per shard for
    /// the sharded engine, a single entry otherwise. Only the
    /// benchmark's sharded arm reads it; it goes with ROADMAP item 6.
    pub fn per_shard_counters(&self) -> Vec<EngineCounters> {
        match self {
            Engine::Sharded(e) => e
                .per_shard_stats()
                .into_iter()
                .map(counters_from_io)
                .collect(),
            other => vec![other.counters()],
        }
    }

    /// Accumulated traversal (router) busy time of the sharded engine
    /// in nanoseconds; `None` for unsharded engines. Only the
    /// benchmark's sharded arm reads it; it goes with ROADMAP item 6.
    pub fn router_busy_ns(&self) -> Option<u64> {
        match self {
            Engine::Sharded(e) => Some(e.router_busy_ns()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryEngine;
    use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};

    #[test]
    fn counters_track_work_and_reset() {
        let dataset = generate(&CityConfig::tiny(5)).unwrap();
        let engines = Engine::build_all(&dataset).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 4);
        for e in &engines {
            e.reset_counters();
            assert_eq!(e.counters(), EngineCounters::default(), "{}", e.name());
            let mut results = 0;
            for q in &queries {
                results += e.atsq(&dataset, q, 5).len();
            }
            let c = e.counters();
            if results > 0 {
                assert!(c.candidates > 0, "{} saw no candidates", e.name());
                assert!(c.distance_evals > 0, "{}", e.name());
                assert!(c.distance_evals <= c.candidates, "{}", e.name());
            }
            e.reset_counters();
            assert_eq!(e.counters(), EngineCounters::default());
        }
    }

    #[test]
    fn gat_prunes_where_baselines_cannot() {
        let dataset = generate(&CityConfig::tiny(21)).unwrap();
        let engines = Engine::build_all(&dataset).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 6);
        let mut by_name = std::collections::HashMap::new();
        for e in &engines {
            e.reset_counters();
            for q in &queries {
                let _ = e.atsq(&dataset, q, 5);
            }
            by_name.insert(e.name(), e.counters());
        }
        let gat = by_name["GAT"];
        let il = by_name["IL"];
        // GAT's pipeline counters only exist for GAT.
        assert!(gat.apl_reads > 0);
        assert_eq!(il.apl_reads, 0);
        assert_eq!(il.prune_ratio(), 0.0);
        // GAT evaluates no more distances than the activity-only
        // baseline, which must refine every activity match.
        assert!(gat.distance_evals <= il.distance_evals);
    }

    #[test]
    fn prune_ratio_bounds() {
        let c = EngineCounters {
            candidates: 10,
            distance_evals: 3,
            ..EngineCounters::default()
        };
        assert!((c.prune_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(EngineCounters::default().prune_ratio(), 0.0);
    }

    /// A reset racing in-flight queries can leave
    /// `distance_evals > candidates`; the ratio must clamp at zero,
    /// not report a negative pruning fraction.
    #[test]
    fn prune_ratio_clamps_at_zero_under_torn_counters() {
        let torn = EngineCounters {
            candidates: 3,
            distance_evals: 10,
            ..EngineCounters::default()
        };
        assert_eq!(torn.prune_ratio(), 0.0);
        // And a fully-unpruned engine reports exactly zero.
        let even = EngineCounters {
            candidates: 5,
            distance_evals: 5,
            ..EngineCounters::default()
        };
        assert_eq!(even.prune_ratio(), 0.0);
    }

    /// The obs-layer per-query delta converts with the same derived
    /// TAS-pruned rule as the engine-lifetime mapping.
    #[test]
    fn query_counters_convert_to_engine_counters() {
        let qc = atsq_obs::QueryCounters {
            candidates: 10,
            distance_evals: 4,
            tas_checks: 9,
            tas_false_positives: 1,
            apl_reads: 6,
            cold_reads: 2,
        };
        let ec = EngineCounters::from(qc);
        assert_eq!(ec.candidates, 10);
        assert_eq!(ec.distance_evals, 4);
        assert_eq!(ec.tas_pruned, 3);
        assert_eq!(ec.tas_false_positives, 1);
        assert_eq!(ec.apl_reads, 6);
        assert_eq!(ec.cold_reads, 2);
    }

    /// Runs ten queries, each inside its own [`atsq_obs::CounterScope`],
    /// one after another, from freshly reset engine counters. Returns
    /// the per-query deltas summed, the engine totals, and how many
    /// queries did any engine work.
    fn attribute_per_query<E: QueryEngine + Profiled>(
        engine: &E,
        dataset: &atsq_types::Dataset,
    ) -> (atsq_obs::QueryCounters, EngineCounters, usize) {
        use atsq_obs::{CounterScope, CounterSink};
        let queries = generate_queries(dataset, &QueryGenConfig::default(), 10);
        engine.reset_counters();
        let sinks: Vec<_> = queries
            .iter()
            .map(|q| {
                let sink = CounterSink::new();
                let _ctx = CounterScope::enter(sink.clone());
                engine.atsq(dataset, q, 5);
                sink
            })
            .collect();
        let summed = sinks
            .iter()
            .fold(atsq_obs::QueryCounters::default(), |acc, s| {
                acc.add(&s.counters())
            });
        let with_work = sinks.iter().filter(|s| !s.counters().is_zero()).count();
        (summed, engine.counters(), with_work)
    }

    /// Per-query sink attribution: every query's counter delta lands in
    /// its own sink, and the deltas sum to the engine's totals.
    #[test]
    fn per_query_sinks_attribute_exactly() {
        let dataset = generate(&CityConfig::tiny(9)).unwrap();
        let engine = GatEngine::build(&dataset).unwrap();
        let (summed, total, with_work) = attribute_per_query(&engine, &dataset);
        assert_eq!(summed.candidates, total.candidates);
        assert_eq!(summed.distance_evals, total.distance_evals);
        assert_eq!(summed.apl_reads, total.apl_reads);
        assert!(summed.candidates > 0, "queries must have done engine work");
        // The per-query split is real, not all-on-one-sink.
        assert!(with_work > 1, "work attributed to {with_work} sink(s)");
    }

    /// Per-query attribution survives the sharded engine's fan-out: the
    /// lane threads inherit the caller's scope, so each query's delta
    /// (traversal plus per-lane verification) lands in its own sink,
    /// and the deltas sum to the engine totals, cold reads included.
    #[test]
    fn sharded_per_query_sinks_attribute_exactly() {
        use crate::Partition;
        let dataset = generate(&CityConfig::tiny(9)).unwrap();
        let engine = ShardedEngine::build(&dataset, 4, Partition::Hash).unwrap();
        let (summed, total, with_work) = attribute_per_query(&engine, &dataset);
        assert_eq!(summed.candidates, total.candidates);
        assert_eq!(summed.distance_evals, total.distance_evals);
        assert_eq!(summed.apl_reads, total.apl_reads);
        assert_eq!(summed.cold_reads, total.cold_reads);
        assert!(summed.candidates > 0, "queries must have done engine work");
        assert!(with_work > 1, "work attributed to {with_work} sink(s)");
    }
}
