//! The GAT search algorithm (§V, §VI): Algorithm 1's retrieve /
//! validate / refine loop, the §V-A best-first candidate retrieval, the
//! Algorithm-2 lower bound for unseen trajectories, and the one query
//! entry point, [`search`].
//!
//! There is exactly one loop for top-k and range queries, ATSQ and
//! OATSQ, one index or a sharded engine: the variants differ only in
//! the [`Goal`] whose [`Sink`] decides what is kept, the
//! [`QueryKind`] that picks the verification pipeline run per
//! candidate, and whether a [`ShardedEngine`] fans verification out
//! over its lanes.
//!
//! The unvisited grid cells are kept once, as one ordered set per
//! query point: retrieval pops the least head across the sets, and
//! Algorithm 2 reads the nearest `lb_cells` entries of each set.

use crate::index::GatIndex;
use crate::kernel::ScoreScratch;
use crate::sharded::ShardedEngine;
use crate::stats::IoStats;
use atsq_grid::CellId;
use atsq_matching::order_match::{min_order_match_distance, order_feasible};
use atsq_matching::point_match::{dmpm_from_sorted, CandidatePoint, QueryMask};
use atsq_types::{
    ActivitySet, Dataset, Error, Goal, Query, QueryKind, QueryResult, Result, Sink, TrajectoryId,
};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::time::Instant;

/// Total-ordering wrapper for f64 priorities (never NaN here).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

/// Best-first candidate retrieval over the index's grid, HICL and ITL,
/// with the Algorithm-2 lower bound.
struct Retrieval<'a> {
    index: &'a GatIndex,
    query: &'a Query,
    /// Per query point qi: every unvisited cell (pushed but not yet
    /// popped), ordered by `(mdist, cell)`. This one structure is both
    /// the §V-A priority queue — the next cell is the least
    /// `(mdist, cell, qi)` over the set heads — and the paper's
    /// `cellsn(qi)`, the `lb_cells` nearest entries of qi's set.
    /// Keeping every unvisited cell is what makes the Theorem-1
    /// argument sound — truncating at insert time can leave the kept
    /// prefix *smaller* than cells discarded earlier once pops shrink
    /// it, silently inflating the bound.
    frontier: Vec<BTreeSet<(OrdF64, CellId)>>,
    seen: Vec<bool>,
}

impl<'a> Retrieval<'a> {
    /// Seeds the traversal: all level-1 cells containing any activity
    /// of qi.Φ, per query point.
    fn new(index: &'a GatIndex, query: &'a Query) -> Self {
        let mut retrieval = Retrieval {
            index,
            query,
            frontier: vec![BTreeSet::new(); query.points.len()],
            // The id space the index's ITL draws from.
            seen: vec![false; index.tas().len()],
        };
        for q_idx in 0..query.points.len() {
            retrieval.expand(q_idx, CellId::ROOT);
        }
        retrieval
    }

    /// Pushes the children of `cell` that contain any activity of qi.Φ
    /// onto qi's frontier.
    fn expand(&mut self, q_idx: usize, cell: CellId) {
        let q = &self.query.points[q_idx];
        for child in self.index.children_with_any(cell, &q.activities) {
            let mdist = self.index.grid().min_dist(child, &q.loc);
            self.frontier[q_idx].insert((OrdF64(mdist), child));
        }
    }

    /// Removes the least `(mdist, cell, qi)` over all query points.
    fn pop(&mut self) -> Option<(usize, CellId)> {
        let (_, q_idx) = self
            .frontier
            .iter()
            .enumerate()
            .filter_map(|(q_idx, cells)| Some((*cells.first()?, q_idx)))
            .min()?;
        let (_, cell) = self.frontier[q_idx].pop_first()?;
        Some((q_idx, cell))
    }

    /// Dequeues cells until at least `lambda` fresh candidates are
    /// collected (or the frontier empties). Returns the new candidates;
    /// the *caller* charges `record_candidate` per returned id, on
    /// whichever lane owns the candidate's verification.
    fn retrieve_batch(&mut self, lambda: usize) -> Vec<TrajectoryId> {
        let mut out = Vec::new();
        let leaf_level = self.index.config().grid_level;
        while out.len() < lambda {
            let Some((q_idx, cell)) = self.pop() else {
                break;
            };
            if cell.level < leaf_level {
                self.expand(q_idx, cell);
                continue;
            }
            // Leaf: harvest the ITL under each query activity.
            for a in self.query.points[q_idx].activities.iter() {
                for &tr in self.index.itl().trajectories(cell, a) {
                    if !self.seen[tr.index()] {
                        self.seen[tr.index()] = true;
                        out.push(tr);
                    }
                }
            }
        }
        out
    }

    fn exhausted(&self) -> bool {
        self.frontier.iter().all(BTreeSet::is_empty)
    }

    /// The loose §V-B bound: the least `mdist` of any unvisited cell,
    /// which lower-bounds `Dmpm` of *one* query point of any unseen
    /// trajectory and hence `Dmm` as a whole. Used by the ablation
    /// configuration with `tight_lower_bound = false`.
    fn loose_lower_bound(&self) -> f64 {
        self.frontier
            .iter()
            .filter_map(BTreeSet::first)
            .min()
            .map_or(f64::INFINITY, |&(mdist, _)| mdist.0)
    }

    /// Algorithm 2: lower bound on `Dmm(Q, Tr)` over all unseen
    /// trajectories. Per query point, the nearest frontier cells are
    /// materialised as "virtual points" carrying the *entire* activity
    /// set of their cell at `mdist`; the minimum point match over that
    /// virtual trajectory lower-bounds the true `Dmpm` of anything not
    /// yet retrieved, capped by the distance of the first cell left
    /// out.
    fn lower_bound(&self) -> f64 {
        if !self.index.config().tight_lower_bound {
            return self.loose_lower_bound();
        }
        let m = self.index.config().lb_cells;
        let mut total = 0.0f64;
        for (q, cells) in self.query.points.iter().zip(&self.frontier) {
            if cells.is_empty() {
                // The frontier is exact (every pushed cell stays until
                // popped), so emptiness means no unvisited cell can
                // contain qi's activities: no unseen trajectory
                // matches qi at all.
                return f64::INFINITY;
            }
            let qmask = QueryMask::new(&q.activities);
            let mut rest = cells.iter();
            // The paper's cellsn(qi): the m nearest unvisited cells,
            // ascending by mdist.
            let mut virtual_points = Vec::with_capacity(m.min(cells.len()));
            for &(mdist, cell) in rest.by_ref().take(m) {
                if let Some(acts) = self.index.cell_activities(cell) {
                    let mask = qmask.cover_mask(acts);
                    if mask != 0 {
                        virtual_points.push(CandidatePoint {
                            dist: mdist.0,
                            mask,
                        });
                    }
                }
            }
            let dmpm = dmpm_from_sorted(&qmask, &virtual_points);
            // Cells beyond the m-th are all at least as far as the
            // next one: any match hiding entirely among them costs at
            // least that much. Only applies when such cells exist.
            let cap = rest.next().map_or(f64::INFINITY, |&(mdist, _)| mdist.0);
            let dilb = match dmpm {
                Some(v) => v.min(cap),
                None => cap,
            };
            if dilb.is_infinite() {
                return f64::INFINITY;
            }
            total += dilb;
        }
        total
    }
}

/// One query's candidate verification: everything but the candidate.
pub(crate) struct Verifier<'a> {
    kind: QueryKind,
    index: &'a GatIndex,
    dataset: &'a Dataset,
    query: &'a Query,
    all_acts: ActivitySet,
}

impl Verifier<'_> {
    /// Validates candidate `tr` through the index's TAS and APL (§V-C /
    /// §V-D; plus the §VI-B MIB filter for OATSQ) and computes its
    /// distance, charging the work to `stats`. `None` for invalid
    /// candidates and for OATSQ candidates beyond `dk`.
    ///
    /// ATSQ point scoring runs through the SoA batch kernel in
    /// `scratch` — bit-identical to the scalar reference (see
    /// [`crate::kernel`]) but allocation-free and autovectorizable.
    pub(crate) fn verify(
        &self,
        stats: &IoStats,
        tr: TrajectoryId,
        dk: f64,
        scratch: &mut ScoreScratch,
    ) -> Option<f64> {
        let use_tas = self.index.config().use_tas;
        if use_tas {
            stats.record_tas_check();
            if !self.index.tas().sketch(tr.index()).covers(&self.all_acts) {
                return None;
            }
        }
        stats.record_apl_read();
        let postings = self.index.apl().trajectory(tr.index());
        if !postings.contains_all(&self.all_acts) {
            if use_tas {
                stats.record_tas_false_positive();
            }
            return None;
        }
        let points = &self.dataset.trajectory(tr).points;
        match self.kind {
            QueryKind::Atsq => {
                stats.record_distance();
                let mut total = 0.0;
                for q in &self.query.points {
                    let qmask = QueryMask::new(&q.activities);
                    postings.candidate_indexes_into(&q.activities, &mut scratch.indexes);
                    let cp = scratch.score(&q.loc, &qmask, points);
                    total += dmpm_from_sorted(&qmask, cp)?;
                }
                Some(total)
            }
            QueryKind::Oatsq => {
                // MIB filter before the expensive dynamic program.
                if !order_feasible(self.query, points) {
                    return None;
                }
                stats.record_distance();
                min_order_match_distance(self.query, points, dk)
            }
        }
    }
}

/// Accumulates the time the coordinating thread spends in the
/// traversal itself (retrieve + lower bound) — with routing, the
/// serial section a sharded query cannot parallelize. Off, and free,
/// for a single index.
struct SerialClock(Option<u64>);

impl SerialClock {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let Some(ns) = &mut self.0 else { return f() };
        let t0 = Instant::now();
        let out = f();
        *ns += t0.elapsed().as_nanos() as u64;
        out
    }
}

/// ATSQ (§II) or OATSQ (§VI) over one index, top-k or range: the `k`
/// trajectories with the smallest `Dmm` (or `Dmom`), or every one
/// within the radius, ascending with ties broken by id.
///
/// For OATSQ, Lemma 3 (`Dmm ≤ Dmom`) keeps the Algorithm-2 lower bound
/// valid, so the same retrieval loop applies; only validation and the
/// distance function change. A range goal replaces `Dk` by its radius
/// in every pruning test, and for OATSQ Algorithm 4's early exit
/// doubles as the radius filter.
///
/// Errs on a `dataset` shorter than the one indexed.
pub fn search(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    kind: QueryKind,
    goal: Goal,
) -> Result<Vec<QueryResult>> {
    run(index, dataset, query, kind, goal, None)
}

/// Algorithm 1 — the one search loop of the crate. Retrieves candidate
/// batches best-first (§V-A), verifies each candidate, offers the
/// survivors to the goal's sink, and stops once the sink's cutoff
/// beats the Algorithm-2 lower bound of everything still unseen.
///
/// With `fanout = None` candidates are verified in retrieval order
/// against the live cutoff and charged to the index's own counters.
/// A [`ShardedEngine`] passes itself: each batch is routed to the
/// lanes owning its candidates and verified there (possibly on worker
/// threads), still at the *global* trajectory id against the same
/// index and dataset — so the candidate stream, every distance and the
/// `(distance, id)` ranking are those of the single index.
pub(crate) fn run(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    kind: QueryKind,
    goal: Goal,
    fanout: Option<&ShardedEngine>,
) -> Result<Vec<QueryResult>> {
    // The ITL hands out ids of the indexed trajectories; every one of
    // them is looked up in `dataset` during verification.
    if dataset.len() < index.tas().len() {
        return Err(Error::InvalidConfig(format!(
            "dataset has {} trajectories but the index covers {}",
            dataset.len(),
            index.tas().len()
        )));
    }
    if goal.wants_nothing() || dataset.is_empty() {
        return Ok(Vec::new());
    }
    let verifier = Verifier {
        kind,
        index,
        dataset,
        query,
        all_acts: query.all_activities(),
    };
    let mut lanes = fanout.map(ShardedEngine::lanes);
    let mut scratch = ScoreScratch::new();
    let mut sink = Sink::new(goal, dataset.len());
    let mut serial = SerialClock(fanout.map(|_| 0));
    let lambda = index.config().lambda;
    let mut retrieval = serial.time(|| Retrieval::new(index, query));

    loop {
        let batch = serial.time(|| retrieval.retrieve_batch(lambda));
        match &mut lanes {
            Some(lanes) => lanes.verify_batch(&verifier, &batch, &mut sink),
            None => {
                for tr in batch {
                    index.stats().record_candidate();
                    let dk = sink.cutoff();
                    if let Some(d) = verifier.verify(index.stats(), tr, dk, &mut scratch) {
                        sink.offer(d, tr);
                    }
                }
            }
        }
        if retrieval.exhausted() {
            break;
        }
        // Termination: the cutoff beats anything still unseen.
        let dlb = serial.time(|| retrieval.lower_bound());
        if sink.cutoff() < dlb {
            break;
        }
    }
    if let (Some(engine), Some(ns)) = (fanout, serial.0) {
        engine.add_router_busy(ns);
    }
    Ok(sink.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GatConfig;
    use atsq_matching::{min_match_distance, min_order_match_distance as dmom_exact};
    use atsq_types::{rank_top_k, ActivitySet, DatasetBuilder, Point, QueryPoint, TrajectoryPoint};
    use QueryKind::{Atsq, Oatsq};

    fn top_k(
        idx: &GatIndex,
        d: &Dataset,
        q: &Query,
        kind: QueryKind,
        k: usize,
    ) -> Vec<QueryResult> {
        search(idx, d, q, kind, Goal::TopK(k)).unwrap()
    }

    fn tp(x: f64, y: f64, acts: &[u32]) -> TrajectoryPoint {
        TrajectoryPoint::new(
            Point::new(x, y),
            ActivitySet::from_raw(acts.iter().copied()),
        )
    }

    fn qp(x: f64, y: f64, acts: &[u32]) -> QueryPoint {
        QueryPoint::new(
            Point::new(x, y),
            ActivitySet::from_raw(acts.iter().copied()),
        )
    }

    /// A dataset with an exactly-known ranking.
    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for name in ["a", "b", "c", "d"] {
            b.observe_activity(name);
        }
        // Tr0: perfect match at distance 0.
        b.push_trajectory(vec![tp(0.0, 0.0, &[0]), tp(10.0, 0.0, &[1])]);
        // Tr1: match at distance 2.
        b.push_trajectory(vec![tp(1.0, 0.0, &[0]), tp(11.0, 0.0, &[1])]);
        // Tr2: missing activity 1 entirely.
        b.push_trajectory(vec![tp(0.0, 0.0, &[0]), tp(10.0, 0.0, &[2])]);
        // Tr3: match but far away.
        b.push_trajectory(vec![tp(40.0, 40.0, &[0]), tp(50.0, 40.0, &[1])]);
        // Tr4: wrong order (1 before 0).
        b.push_trajectory(vec![tp(10.0, 0.0, &[1]), tp(0.1, 0.0, &[0])]);
        b.finish().unwrap()
    }

    fn config() -> GatConfig {
        GatConfig {
            grid_level: 5,
            memory_level: 3,
            lambda: 2,
            lb_cells: 4,
            ..GatConfig::default()
        }
    }

    fn query() -> Query {
        Query::new(vec![qp(0.0, 0.0, &[0]), qp(10.0, 0.0, &[1])]).unwrap()
    }

    #[test]
    fn atsq_ranks_by_dmm() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let res = top_k(&idx, &d, &query(), Atsq, 3);
        let ids: Vec<u32> = res.iter().map(|r| r.trajectory.0).collect();
        // Tr4 has Dmm = 0.1 (activity 0 at x=0.1, activity 1 at x=10).
        assert_eq!(ids, vec![0, 4, 1]);
        assert_eq!(res[0].distance, 0.0);
        assert!((res[1].distance - 0.1).abs() < 1e-12);
        assert!((res[2].distance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn oatsq_respects_order() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let res = top_k(&idx, &d, &query(), Oatsq, 3);
        let ids: Vec<u32> = res.iter().map(|r| r.trajectory.0).collect();
        // Tr4 is invalid for the ordered query (1 appears before 0).
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn results_match_exhaustive_scan() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let q = query();
        for kind in [Atsq, Oatsq] {
            let mut all = Vec::new();
            for tr in d.trajectories() {
                let dist = match kind {
                    Atsq => min_match_distance(&q, &tr.points),
                    Oatsq => dmom_exact(&q, &tr.points, f64::INFINITY),
                };
                all.extend(dist.map(|dist| QueryResult::new(tr.id, dist)));
            }
            for k in 1..=5 {
                let want = rank_top_k(all.clone(), k);
                assert_eq!(top_k(&idx, &d, &q, kind, k), want, "{kind:?} k={k}");
            }
        }
    }

    #[test]
    fn k_zero_and_empty_dataset() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        assert!(top_k(&idx, &d, &query(), Atsq, 0).is_empty());
        let empty = DatasetBuilder::new().finish().unwrap();
        let idx2 = GatIndex::build(&empty).unwrap();
        assert!(top_k(&idx2, &empty, &query(), Atsq, 3).is_empty());
    }

    /// A NaN radius wants nothing, like a negative one: the search
    /// retrieves no candidate at all.
    #[test]
    fn nan_radius_retrieves_nothing() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        for tau in [f64::NAN, -1.0] {
            for kind in [Atsq, Oatsq] {
                assert!(search(&idx, &d, &query(), kind, Goal::Range(tau))
                    .unwrap()
                    .is_empty());
            }
        }
        assert_eq!(idx.stats().snapshot().candidates_retrieved, 0);
    }

    #[test]
    fn unmatchable_activity_yields_empty() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let q = Query::new(vec![qp(0.0, 0.0, &[3])]).unwrap(); // "d" never occurs
        assert!(top_k(&idx, &d, &q, Atsq, 3).is_empty());
        assert!(top_k(&idx, &d, &q, Oatsq, 3).is_empty());
    }

    /// `k` comes off the wire: a huge `k` must neither reserve memory
    /// for it nor change the answer.
    #[test]
    fn k_beyond_the_dataset_returns_every_match() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let all = top_k(&idx, &d, &query(), Atsq, d.len());
        assert_eq!(all.len(), 4, "Tr2 lacks activity 1");
        assert_eq!(top_k(&idx, &d, &query(), Atsq, usize::MAX), all);
        assert_eq!(
            top_k(&idx, &d, &query(), Oatsq, usize::MAX),
            top_k(&idx, &d, &query(), Oatsq, d.len())
        );
    }

    /// The ITL hands out ids of the *indexed* trajectories; a shorter
    /// dataset is an error, not an out-of-bounds panic.
    #[test]
    fn dataset_shorter_than_the_index_is_rejected() {
        use crate::sharded::{Partition, ShardedEngine};
        let d = dataset();
        let short = d.subset(&[TrajectoryId(0), TrajectoryId(1)]);
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let sharded = ShardedEngine::build_with(&d, 3, Partition::Hash, config()).unwrap();
        let q = query();
        for got in [
            search(&idx, &short, &q, Atsq, Goal::TopK(3)),
            search(&idx, &short, &q, Oatsq, Goal::Range(5.0)),
            sharded.try_search(&short, &q, Atsq, Goal::TopK(3)),
            sharded.try_search(&short, &q, Oatsq, Goal::Range(5.0)),
        ] {
            assert!(matches!(got, Err(Error::InvalidConfig(_))), "{got:?}");
        }
    }

    #[test]
    fn stats_reflect_pipeline() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let _ = top_k(&idx, &d, &query(), Atsq, 2);
        let s = idx.stats().snapshot();
        assert!(s.candidates_retrieved > 0);
        assert!(s.tas_checks > 0);
        assert!(s.distances_computed > 0);
    }
}
