//! The GAT search algorithm (§V, §VI): Algorithm 1's retrieve /
//! validate / refine loop, the §V-A best-first candidate retrieval, the
//! Algorithm-2 lower bound for unseen trajectories, and the ATSQ /
//! OATSQ entry points.
//!
//! There is exactly one loop — `search` — for top-k and range
//! queries, ATSQ and OATSQ, one index or a sharded engine: the
//! variants differ only in the `Goal` that decides what is kept,
//! the `Verify` pipeline run per candidate, and whether a
//! [`ShardedEngine`] fans verification out over its lanes.
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
    rank_top_k, ActivitySet, Dataset, Error, Query, QueryResult, Result, TrajectoryId,
};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};
use std::time::Instant;

/// Total-ordering wrapper for f64 priorities (never NaN here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(f64);

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

/// What a search is asked to return.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Goal {
    /// The `k` trajectories with the smallest distance (Algorithm 1).
    TopK(usize),
    /// Every trajectory within distance `tau`: the radius replaces the
    /// k-th best distance in every pruning test.
    Range(f64),
}

/// The results collected so far, and the distance a candidate must
/// not exceed to still matter.
///
/// Its content is a pure function of the *set* of offered `(dist, id)`
/// pairs — the k smallest under the `(dist, id)` order, or all within
/// the radius — so any evaluation order, and any extra offers of pairs
/// worse than the final k-th, produce the same results. Fanning
/// verification out over lanes leans on exactly this property.
pub(crate) enum Sink {
    /// Bounded max-heap whose top is the current k-th best.
    TopK {
        k: usize,
        heap: BinaryHeap<(OrdF64, TrajectoryId)>,
    },
    Range {
        tau: f64,
        out: Vec<QueryResult>,
    },
}

impl Sink {
    /// `n` is the number of trajectories that could ever be offered:
    /// `k` comes off the wire, so the reservation is bounded by `n`.
    fn new(goal: Goal, n: usize) -> Self {
        match goal {
            Goal::TopK(k) => Sink::TopK {
                k,
                heap: BinaryHeap::with_capacity(k.min(n) + 1),
            },
            Goal::Range(tau) => Sink::Range {
                tau,
                out: Vec::new(),
            },
        }
    }

    /// `Dk` of Algorithm 1: the live k-th best distance (`∞` until k
    /// results exist), or the radius. It only ever over-estimates the
    /// final cutoff, so pruning *strictly* against it (or against any
    /// earlier value of it, as parallel lanes do) never drops a result
    /// or changes a tie-break.
    pub(crate) fn cutoff(&self) -> f64 {
        match self {
            Sink::TopK { k, heap } if heap.len() == *k => {
                heap.peek().map_or(f64::INFINITY, |&(d, _)| d.0)
            }
            Sink::TopK { .. } => f64::INFINITY,
            Sink::Range { tau, .. } => *tau,
        }
    }

    pub(crate) fn offer(&mut self, dist: f64, tr: TrajectoryId) {
        match self {
            Sink::TopK { k, heap } => {
                heap.push((OrdF64(dist), tr));
                if heap.len() > *k {
                    heap.pop();
                }
            }
            Sink::Range { tau, out } => {
                if dist <= *tau {
                    out.push(QueryResult::new(tr, dist));
                }
            }
        }
    }

    fn finish(self) -> Vec<QueryResult> {
        match self {
            Sink::TopK { k, heap } => {
                let results = heap.into_iter().map(|(d, tr)| QueryResult::new(tr, d.0));
                rank_top_k(results.collect(), k)
            }
            Sink::Range { out, .. } => rank_top_k(out, usize::MAX),
        }
    }
}

/// Which verification pipeline runs per candidate: ATSQ's `Dmm`
/// (Algorithm 3 per query point) or OATSQ's `Dmom` (MIB filter +
/// Algorithm 4 with the `Dk` early exit).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Verify {
    Atsq,
    Oatsq,
}

/// One query's candidate verification: everything but the candidate.
pub(crate) struct Verifier<'a> {
    kind: Verify,
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
            Verify::Atsq => {
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
            Verify::Oatsq => {
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
pub(crate) fn search(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    kind: Verify,
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
    let wants_nothing = match goal {
        Goal::TopK(k) => k == 0,
        Goal::Range(tau) => tau < 0.0,
    };
    if wants_nothing || dataset.is_empty() {
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

/// Fallible form of [`atsq`]; errs on a `dataset` shorter than the one
/// indexed.
pub fn try_atsq(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    k: usize,
) -> Result<Vec<QueryResult>> {
    search(index, dataset, query, Verify::Atsq, Goal::TopK(k), None)
}

/// Activity Trajectory Similarity Query (ATSQ, §II): the `k`
/// trajectories with the smallest minimum match distance `Dmm(Q, ·)`.
///
/// # Panics
/// On a `dataset` shorter than the one indexed; use [`try_atsq`] to
/// handle that.
pub fn atsq(index: &GatIndex, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
    try_atsq(index, dataset, query, k).expect("ATSQ failed")
}

/// Fallible form of [`oatsq`]; errs as [`try_atsq`] does.
pub fn try_oatsq(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    k: usize,
) -> Result<Vec<QueryResult>> {
    search(index, dataset, query, Verify::Oatsq, Goal::TopK(k), None)
}

/// Order-sensitive ATSQ (OATSQ, §VI): the `k` trajectories with the
/// smallest minimum order-sensitive match distance `Dmom(Q, ·)`.
///
/// Lemma 3 (`Dmm ≤ Dmom`) keeps the Algorithm-2 lower bound valid, so
/// the same retrieval loop applies; only validation and the distance
/// function change.
///
/// # Panics
/// As [`atsq`]; use [`try_oatsq`] otherwise.
pub fn oatsq(index: &GatIndex, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
    try_oatsq(index, dataset, query, k).expect("OATSQ failed")
}

/// Fallible form of [`atsq_range`]; errs as [`try_atsq`] does.
pub fn try_atsq_range(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    tau: f64,
) -> Result<Vec<QueryResult>> {
    search(index, dataset, query, Verify::Atsq, Goal::Range(tau), None)
}

/// Range (threshold) ATSQ: every trajectory with `Dmm(Q, Tr) ≤ tau`,
/// ascending by distance. A natural companion of the paper's top-k
/// query: the same index, candidate retrieval and Algorithm-2 bound
/// apply, with the radius replacing `Dkmm` in the termination test.
///
/// # Panics
/// As [`atsq`]; use [`try_atsq_range`] otherwise.
pub fn atsq_range(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    tau: f64,
) -> Vec<QueryResult> {
    try_atsq_range(index, dataset, query, tau).expect("range ATSQ failed")
}

/// Fallible form of [`oatsq_range`]; errs as [`try_atsq`] does.
pub fn try_oatsq_range(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    tau: f64,
) -> Result<Vec<QueryResult>> {
    // Algorithm 4's early exit doubles as the radius filter.
    search(index, dataset, query, Verify::Oatsq, Goal::Range(tau), None)
}

/// Range (threshold) OATSQ: every trajectory with `Dmom(Q, Tr) ≤ tau`.
///
/// # Panics
/// As [`atsq`]; use [`try_oatsq_range`] otherwise.
pub fn oatsq_range(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    tau: f64,
) -> Vec<QueryResult> {
    try_oatsq_range(index, dataset, query, tau).expect("range OATSQ failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GatConfig;
    use atsq_matching::{min_match_distance, min_order_match_distance as dmom_exact};
    use atsq_types::{ActivitySet, DatasetBuilder, Point, QueryPoint, TrajectoryPoint};

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
        let res = atsq(&idx, &d, &query(), 3);
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
        let res = oatsq(&idx, &d, &query(), 3);
        let ids: Vec<u32> = res.iter().map(|r| r.trajectory.0).collect();
        // Tr4 is invalid for the ordered query (1 appears before 0).
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn results_match_exhaustive_scan() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let q = query();
        for k in 1..=5 {
            let got = atsq(&idx, &d, &q, k);
            let mut want = Vec::new();
            for tr in d.trajectories() {
                if let Some(dist) = min_match_distance(&q, &tr.points) {
                    want.push(QueryResult::new(tr.id, dist));
                }
            }
            let want = rank_top_k(want, k);
            assert_eq!(got, want, "k={k}");

            let got_o = oatsq(&idx, &d, &q, k);
            let mut want_o = Vec::new();
            for tr in d.trajectories() {
                if let Some(dist) = dmom_exact(&q, &tr.points, f64::INFINITY) {
                    want_o.push(QueryResult::new(tr.id, dist));
                }
            }
            let want_o = rank_top_k(want_o, k);
            assert_eq!(got_o, want_o, "ordered k={k}");
        }
    }

    #[test]
    fn k_zero_and_empty_dataset() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        assert!(atsq(&idx, &d, &query(), 0).is_empty());
        let empty = DatasetBuilder::new().finish().unwrap();
        let idx2 = GatIndex::build(&empty).unwrap();
        assert!(atsq(&idx2, &empty, &query(), 3).is_empty());
    }

    #[test]
    fn unmatchable_activity_yields_empty() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let q = Query::new(vec![qp(0.0, 0.0, &[3])]).unwrap(); // "d" never occurs
        assert!(atsq(&idx, &d, &q, 3).is_empty());
        assert!(oatsq(&idx, &d, &q, 3).is_empty());
    }

    /// `k` comes off the wire: a huge `k` must neither reserve memory
    /// for it nor change the answer.
    #[test]
    fn k_beyond_the_dataset_returns_every_match() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let all = atsq(&idx, &d, &query(), d.len());
        assert_eq!(all.len(), 4, "Tr2 lacks activity 1");
        assert_eq!(atsq(&idx, &d, &query(), usize::MAX), all);
        assert_eq!(
            oatsq(&idx, &d, &query(), usize::MAX),
            oatsq(&idx, &d, &query(), d.len())
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
            try_atsq(&idx, &short, &q, 3),
            try_oatsq_range(&idx, &short, &q, 5.0),
            sharded.try_atsq(&short, &q, 3),
            sharded.try_oatsq_range(&short, &q, 5.0),
        ] {
            assert!(matches!(got, Err(Error::InvalidConfig(_))), "{got:?}");
        }
    }

    #[test]
    fn stats_reflect_pipeline() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let _ = atsq(&idx, &d, &query(), 2);
        let s = idx.stats().snapshot();
        assert!(s.candidates_retrieved > 0);
        assert!(s.tas_checks > 0);
        assert!(s.distances_computed > 0);
    }
}
