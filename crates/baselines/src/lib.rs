//! The three baseline algorithms of §III, reproduced faithfully:
//!
//! * [`il::IlEngine`] — activity-only pruning with a per-activity
//!   inverted list over whole trajectories (§III-A).
//! * [`rt::RtEngine`] — purely spatial pruning with an R-tree over all
//!   trajectory points, adapting the k-BCT incremental search of Chen
//!   et al. \[20\] with the Lemma-2 termination test (§III-B).
//! * [`irt::IrtEngine`] — the IR-tree variant: the same incremental
//!   search, but subtrees containing none of the query activities are
//!   pruned during traversal (§III-C).
//!
//! All three engines share the *same* distance kernels as GAT
//! (`atsq-matching`), exactly as the paper prescribes: "the four
//! algorithms only differ in the index structure and how they retrieve
//! candidates". Each implements [`QueryEngine`](atsq_types::QueryEngine) once, for both query
//! kinds and both goals: IL runs one candidate loop, RT and IRT one
//! incremental loop (which [`RtEngine::kbct`] shares), each ranking by
//! [`atsq_matching::candidate_distance`] into the shared
//! [`atsq_types::Sink`]. A goal that wants nothing
//! ([`atsq_types::Goal::wants_nothing`]) returns before any fetch.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod common;
pub mod il;
pub mod irt;
pub mod rt;

pub use il::IlEngine;
pub use irt::IrtEngine;
pub use rt::RtEngine;

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::{
        ActivitySet, DatasetBuilder, Goal, Point, Query, QueryEngine, QueryKind, QueryPoint,
        TrajectoryPoint,
    };

    /// `k = 0` and a negative or NaN radius want nothing: every
    /// baseline answers them without fetching a single trajectory.
    #[test]
    fn goals_that_want_nothing_fetch_nothing() {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        let a = b.observe_activity("a");
        for x in [0.0, 1.0, 2.0] {
            let acts = ActivitySet::from_ids([a]);
            b.push_trajectory(vec![TrajectoryPoint::new(Point::new(x, 0.0), acts)]);
        }
        let d = b.finish().unwrap();
        let q = Query::new(vec![QueryPoint::new(
            Point::new(0.0, 0.0),
            ActivitySet::from_ids([a]),
        )])
        .unwrap();
        let (il, rt, irt) = (
            IlEngine::build(&d),
            RtEngine::build(&d),
            IrtEngine::build(&d),
        );
        let engines: [(&dyn QueryEngine, &dyn Fn() -> u64); 3] = [
            (&il, &|| il.fetches()),
            (&rt, &|| rt.fetches()),
            (&irt, &|| irt.fetches()),
        ];
        for (engine, fetches) in engines {
            for kind in [QueryKind::Atsq, QueryKind::Oatsq] {
                for goal in [Goal::TopK(0), Goal::Range(-1.0), Goal::Range(f64::NAN)] {
                    assert!(engine.search(&d, &q, kind, goal).is_empty());
                    assert_eq!(fetches(), 0, "{} {kind:?} {goal:?}", engine.name());
                }
            }
            // The same query with a real goal does fetch.
            assert_eq!(engine.atsq(&d, &q, 1).len(), 1);
            assert!(fetches() > 0, "{}", engine.name());
        }
    }
}
